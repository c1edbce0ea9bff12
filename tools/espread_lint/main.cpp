// espread_lint CLI.
//
//   espread_lint [--root=DIR] [--sarif=FILE]
//
// Scans src bench tests tools examples under --root (default: the current
// directory) with every rule; see lint.hpp.  Exits 0 when clean, 1 when
// any diagnostic fired, 2 on usage or I/O errors.  Diagnostics are
// GCC-style (`file:line: error: ... [Dnn]`) so CI log lines are clickable.
// --sarif additionally writes a SARIF 2.1.0 report for code-scanning
// upload.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/flags.hpp"
#include "lint.hpp"

int main(int argc, char** argv) {
    using namespace espread::lint;

    std::string root = ".";
    std::string sarif_path;
    using namespace espread::exp;
    const Flag flags[] = {
        {"--root", Text{&root}},
        {"--sarif", Text{&sarif_path}},
    };
    parse_flags_or_exit(argc, argv, flags);
    if (!std::filesystem::is_directory(root)) {
        std::fprintf(stderr, "espread_lint: --root '%s' is not a directory\n",
                     root.c_str());
        return 2;
    }

    const std::vector<Diagnostic> diags = scan_tree(root);
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

    if (!diags.empty()) {
        const std::size_t n = diags.size();
        std::fprintf(stderr, "espread_lint: %zu finding%s\n", n,
                     n == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
