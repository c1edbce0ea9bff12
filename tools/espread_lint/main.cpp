// espread_lint CLI.
//
//   espread_lint [--root=DIR] [--allowlist=FILE] [--no-default-allowlist]
//                [--jobs=N] [--contracts] [--contracts-only]
//                [--registry=FILE] [--sarif=FILE] [--compile-commands=FILE]
//                [--list-rules] paths...
//
// Paths are files or directories relative to --root (default: the current
// directory).  Exits 0 when clean, 1 when any diagnostic fired, 2 on usage
// or I/O errors.  Diagnostics are GCC-style (`file:line: error: ... [Dnn]`)
// so CI log lines are clickable.
//
// --contracts adds the cross-TU contract rules C1, C4 and C5 on top of the
// token rules D0-D5; --contracts-only runs just the contract rules.  --sarif
// additionally writes a SARIF 2.1.0 report for code-scanning upload.
// --compile-commands turns on the coverage guard: any TU the build compiles
// under the scanned paths that the scan never visited is an error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "contracts.hpp"
#include "lint.hpp"

namespace {

bool parse_value_flag(const char* arg, const char* name, std::string* out) {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
    *out = arg + len + 1;
    return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace espread::lint;

    std::string root = ".";
    std::string allowlist_path;
    std::string jobs_str;
    std::string registry;
    std::string sarif_path;
    std::string compile_commands;
    bool use_default_allowlist = true;
    bool list_rules = false;
    bool contracts = false;
    bool contracts_only = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (parse_value_flag(arg, "--root", &root)) {
        } else if (parse_value_flag(arg, "--allowlist", &allowlist_path)) {
        } else if (parse_value_flag(arg, "--jobs", &jobs_str)) {
        } else if (parse_value_flag(arg, "--registry", &registry)) {
        } else if (parse_value_flag(arg, "--sarif", &sarif_path)) {
        } else if (parse_value_flag(arg, "--compile-commands",
                                    &compile_commands)) {
        } else if (std::strcmp(arg, "--contracts") == 0) {
            contracts = true;
        } else if (std::strcmp(arg, "--contracts-only") == 0) {
            contracts = true;
            contracts_only = true;
        } else if (std::strcmp(arg, "--no-default-allowlist") == 0) {
            use_default_allowlist = false;
        } else if (std::strcmp(arg, "--list-rules") == 0) {
            list_rules = true;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "espread_lint: unknown flag '%s'\n", arg);
            return 2;
        } else {
            paths.emplace_back(arg);
        }
    }

    if (list_rules) {
        for (const RuleInfo& r : rules()) {
            std::printf("%s  %-7s  %s\n", r.id,
                        r.severity == Severity::kError ? "error" : "warning",
                        r.summary);
        }
        return 0;
    }

    if (paths.empty()) {
        std::fprintf(
            stderr,
            "usage: espread_lint [--root=DIR] [--allowlist=FILE] "
            "[--no-default-allowlist] [--jobs=N] [--contracts] "
            "[--contracts-only] [--registry=FILE] [--sarif=FILE] "
            "[--compile-commands=FILE] [--list-rules] paths...\n");
        return 2;
    }

    LintConfig cfg = default_config();
    if (allowlist_path.empty() && use_default_allowlist) {
        const auto def = std::filesystem::path(root) / "tools" /
                         "espread_lint" / "allowlist.txt";
        if (std::filesystem::exists(def)) {
            allowlist_path = def.generic_string();
        }
    }
    if (!allowlist_path.empty()) {
        std::string err;
        if (!load_allowlist_file(allowlist_path, cfg, &err)) {
            std::fprintf(stderr, "espread_lint: %s\n", err.c_str());
            return 2;
        }
    }

    ScanOptions opt;
    opt.token_rules = !contracts_only;
    opt.contract_rules = contracts;
    opt.contracts = default_contract_config();
    if (!registry.empty()) opt.contracts.registry_path = registry;
    if (!jobs_str.empty()) {
        char* end = nullptr;
        const unsigned long n = std::strtoul(jobs_str.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
            std::fprintf(stderr, "espread_lint: bad --jobs value '%s'\n",
                         jobs_str.c_str());
            return 2;
        }
        opt.jobs = static_cast<std::size_t>(n);
    }
    std::vector<std::string> visited;
    if (!compile_commands.empty()) opt.visited = &visited;

    const std::vector<Diagnostic> diags = scan_tree(root, paths, cfg, opt);
    for (const Diagnostic& d : diags) {
        std::printf("%s\n", format_gcc(d).c_str());
    }

    if (!sarif_path.empty()) {
        std::ofstream out(sarif_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "espread_lint: cannot write SARIF to '%s'\n",
                         sarif_path.c_str());
            return 2;
        }
        out << sarif_json(diags);
    }

    bool gaps_found = false;
    if (!compile_commands.empty()) {
        std::ifstream in(compile_commands, std::ios::binary);
        if (!in) {
            std::fprintf(stderr,
                         "espread_lint: cannot read compile commands '%s'\n",
                         compile_commands.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::vector<std::string> prefixes;
        for (const std::string& p : paths) {
            const auto abs = std::filesystem::path(root) / p;
            prefixes.push_back(std::filesystem::is_directory(abs) ? p + "/"
                                                                  : p);
        }
        for (const std::string& gap :
             coverage_gaps(visited, buf.str(), root, prefixes)) {
            std::printf(
                "%s:1: error: TU is compiled but was not scanned by "
                "espread_lint (coverage guard) [D0]\n",
                gap.c_str());
            gaps_found = true;
        }
    }

    if (!diags.empty() || gaps_found) {
        const std::size_t n = diags.size();
        std::fprintf(stderr, "espread_lint: %zu finding%s%s\n", n,
                     n == 1 ? "" : "s",
                     gaps_found ? " (+ coverage gaps)" : "");
        return 1;
    }
    return 0;
}
