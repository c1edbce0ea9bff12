// Repository benchmark entry point.
//
//   perfbench --workload <engine_fleet|session_paper|session_repair>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one human-readable line per metric (name, value, unit, sample
// count), then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ledger.  Exits 1 when any output check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<engine_fleet|session_paper|session_repair> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
    perfbench::Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') usage("bad --seed");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
                usage("bad --seconds");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("bad --trace");
            a.trace = value == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    return a;
}

/// JSON number with every significant digit; non-finite values (a
/// division by an empty base that escaped ratio()) render as 0.
std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::Args args = parse(argc, argv);
    perfbench::Outcome out;
    try {
        if (args.workload == "engine_fleet") {
            out = perfbench::run_engine_fleet(args);
        } else if (args.workload == "session_paper" ||
                   args.workload == "session_repair") {
            out = perfbench::run_session_workload(args);
        } else {
            usage(("unknown workload " + args.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    if (args.trace) {
        // Fixed ledger order; layers this workload never calls read 0.
        std::vector<perfbench::Metric> ledger;
        for (const perfbench::LayerMetric& def : perfbench::kLayerMetrics) {
            perfbench::Metric m{std::string(def.name), 0.0, std::string(def.unit), 0};
            for (const perfbench::Metric& got : out.metrics) {
                if (got.name == def.name) m = got;
            }
            ledger.push_back(std::move(m));
        }
        out.metrics = std::move(ledger);
    }

    std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
    std::printf("fingerprint %s seed=%llu %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                perfbench::hex64(out.fingerprint).c_str());
    for (const perfbench::Metric& m : out.metrics) {
        std::string extra;
        if (m.samples > 0) extra = "(n=" + std::to_string(m.samples) + ")";
        if (!m.gated) extra += " printed only, not in the result line";
        std::printf("  %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), extra.c_str());
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("attempted %llu, failed %llu, failed_ratio %.6f\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                perfbench::ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric& m : out.metrics) {
        if (!m.gated) continue;
        if (!first) json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
