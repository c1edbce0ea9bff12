// perf_gate: CI guard on the repo's performance trajectory.
//
// Compares the windows_per_second of freshly produced BENCH_*.json files
// against the checked-in floor baselines in
// bench/baselines/BENCH_baseline.json and exits 1 when any bench
// regresses more than the tolerance below its floor or a file cannot be
// read, 2 on a usage error or a file that is not valid JSON:
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
// The baseline and every bench file go through the report tool's strict
// JSON reader (espread::json_read): a truncated or otherwise malformed
// file exits 2, naming the file, rather than yielding whatever numbers
// precede the damage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/flags.hpp"
#include "json_read.hpp"

namespace {

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Parses `text` (read from `path`) into `out`; on malformed JSON prints
/// the reader's error with the file name and returns false.
bool parse_or_report(const std::string& text, const std::string& path,
                     espread::report::JsonValue& out) {
    std::string error;
    if (espread::report::parse_json(text, out, &error)) return true;
    std::fprintf(stderr, "perf_gate: %s is not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    return false;
}

/// The top-level number `key` of a parsed document, if present.
std::optional<double> top_level_number(const espread::report::JsonValue& doc,
                                       const std::string& key) {
    const espread::report::JsonValue& v = doc.at(key);
    if (!v.is_number()) return std::nullopt;
    return v.number;
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
    espread::report::JsonValue floors;
    if (!parse_or_report(*baseline_text, baseline_path, floors)) return 2;

    bool failed = false;
    for (const auto& [name, file] : checks) {
        const auto floor = top_level_number(floors, name);
        if (!floor) {
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
        espread::report::JsonValue values;
        if (!parse_or_report(*text, file, values)) return 2;
        const auto current = top_level_number(values, metric_key);
        if (!current) {
            std::fprintf(stderr, "perf_gate: %s has no top-level \"%s\"\n",
                         file.c_str(), metric_key.c_str());
            failed = true;
            continue;
        }
        const double limit = *floor * (1.0 - tolerance);
        const bool ok = *current >= limit;
        std::printf("%-18s %s: %12.0f vs floor %12.0f (limit %12.0f) %s\n",
                    name.c_str(), metric_key.c_str(), *current, *floor, limit,
                    ok ? "ok" : "REGRESSION");
        if (!ok) failed = true;
    }
    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
