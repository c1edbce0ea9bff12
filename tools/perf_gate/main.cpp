// perf_gate: CI guard on the repo's performance trajectory.
//
// Compares the windows_per_second of freshly produced BENCH_*.json files
// against the checked-in floor baselines in
// bench/baselines/BENCH_baseline.json and exits 1 when any bench
// regresses more than the tolerance below its floor or a file cannot be
// read, 2 on a usage error:
//
//   perf_gate --baseline=bench/baselines/BENCH_baseline.json
//             [--tolerance=0.10] [--key=windows_per_second]
//             bench_outage=BENCH_outage.json bench_scale=BENCH_scale.json
//
// The baseline file maps bench name -> floor value.  Floors are set well
// below locally measured throughput (shared CI runners are noisy); the
// gate catches trajectory-level regressions — an accidental O(n^2), a
// dropped fast path — not single-digit jitter.  Improvements never fail
// the gate; raise the floors when a speedup lands to lock it in.
//
// JSON handling is deliberately minimal: both the baseline and the bench
// artifacts are scanned for top-level (depth-1) "name": number pairs,
// which is exactly how every espread bench emits its headline metric.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/flags.hpp"

namespace {

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Top-level "key": value pairs of one JSON object, numbers only.
/// Nested objects/arrays are skipped wholesale; string values and other
/// non-numeric scalars are ignored.
std::map<std::string, double> top_level_numbers(const std::string& text) {
    std::map<std::string, double> out;
    std::size_t i = 0;
    const std::size_t n = text.size();
    int depth = 0;
    std::string key;
    while (i < n) {
        const char c = text[i];
        if (c == '"') {
            std::string s;
            ++i;
            while (i < n && text[i] != '"') {
                if (text[i] == '\\' && i + 1 < n) ++i;
                s.push_back(text[i]);
                ++i;
            }
            ++i;  // closing quote
            // A string at depth 1 followed by ':' is a key.
            std::size_t j = i;
            while (j < n && std::isspace(static_cast<unsigned char>(text[j]))) ++j;
            if (depth == 1 && j < n && text[j] == ':') {
                key = s;
                i = j + 1;
            }
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
            ++i;
            continue;
        }
        if (c == '}' || c == ']') {
            --depth;
            ++i;
            continue;
        }
        if (depth == 1 && !key.empty() &&
            (c == '-' || std::isdigit(static_cast<unsigned char>(c)))) {
            char* end = nullptr;
            const double v = std::strtod(text.c_str() + i, &end);
            if (end != text.c_str() + i) {
                out[key] = v;
                key.clear();
                i = static_cast<std::size_t>(end - text.c_str());
                continue;
            }
        }
        if (c == ',') key.clear();
        ++i;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string baseline_path;
    std::string metric_key = "windows_per_second";
    double tolerance = 0.10;
    std::vector<std::string> mappings;  // name=file

    using namespace espread::exp;
    const Flag flags[] = {
        {"--baseline", Text{&baseline_path}},
        {"--tolerance", Number{&tolerance, 0.0, 1.0}},
        {"--key", Text{&metric_key}},
    };
    parse_flags_or_exit(argc, argv, flags, &mappings);
    std::vector<std::pair<std::string, std::string>> checks;  // name -> file
    for (const std::string& m : mappings) {
        const std::size_t eq = m.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "perf_gate: expected name=file, got %s\n",
                         m.c_str());
            return 2;
        }
        checks.emplace_back(m.substr(0, eq), m.substr(eq + 1));
    }
    if (baseline_path.empty() || checks.empty()) {
        std::fprintf(stderr,
                     "usage: perf_gate --baseline=FILE [--tolerance=0.10] "
                     "[--key=windows_per_second] name=current.json...\n");
        return 2;
    }

    const auto baseline_text = read_file(baseline_path);
    if (!baseline_text) {
        std::fprintf(stderr, "perf_gate: cannot read baseline %s\n",
                     baseline_path.c_str());
        return EXIT_FAILURE;
    }
    const auto floors = top_level_numbers(*baseline_text);

    bool failed = false;
    for (const auto& [name, file] : checks) {
        const auto it = floors.find(name);
        if (it == floors.end()) {
            std::fprintf(stderr, "perf_gate: no baseline entry for %s in %s\n",
                         name.c_str(), baseline_path.c_str());
            failed = true;
            continue;
        }
        const auto text = read_file(file);
        if (!text) {
            std::fprintf(stderr, "perf_gate: cannot read %s (%s)\n",
                         file.c_str(), name.c_str());
            failed = true;
            continue;
        }
        const auto values = top_level_numbers(*text);
        const auto vit = values.find(metric_key);
        if (vit == values.end()) {
            std::fprintf(stderr, "perf_gate: %s has no top-level \"%s\"\n",
                         file.c_str(), metric_key.c_str());
            failed = true;
            continue;
        }
        const double floor = it->second;
        const double current = vit->second;
        const double limit = floor * (1.0 - tolerance);
        const bool ok = current >= limit;
        std::printf("%-18s %s: %12.0f vs floor %12.0f (limit %12.0f) %s\n",
                    name.c_str(), metric_key.c_str(), current, floor, limit,
                    ok ? "ok" : "REGRESSION");
        if (!ok) failed = true;
    }
    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
