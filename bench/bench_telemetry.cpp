// Telemetry overhead bench: the cost of the fleet telemetry plane.
//
// Runs the identical engine workload (Fig. 8 channel, seeded churn) twice
// — telemetry off, then on (per-shard slabs + epoch snapshots) — and
// reports the relative windows/sec overhead.  Each arm is repeated and
// the best run kept, so scheduler noise biases the measurement *against*
// the telemetry-off arm least; the acceptance budget for the plane is
// <= 5% and CI can pin it with --max-overhead=X (exits nonzero above X%).
// Results land in BENCH_telemetry.json (--out=FILE).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/engine.hpp"
#include "exp/flags.hpp"
#include "exp/json.hpp"

using espread::engine::EngineConfig;
using espread::engine::ShardedEngine;
using espread::exp::JsonWriter;

namespace {

/// Snapshot cadence of the on-arm, in engine steps.
constexpr std::size_t kEpochSteps = 16;

struct Args {
    EngineConfig engine;             // the telemetry-off arm
    std::size_t windows = 120;       // timed engine steps per run
    std::size_t warmup = 8;          // untimed steps before measurement
    std::size_t repeats = 3;         // best-of-N per arm
    double max_overhead = 0.0;       // percent; 0 = report only
    std::string out = "BENCH_telemetry.json";
};

Args parse_args(int argc, char** argv) {
    using namespace espread::exp;
    Args a;
    EngineConfig& e = a.engine;  // Fig. 8 channel + window defaults
    e.sessions = 20000;
    e.shards = 0;  // hardware threads
    e.churn.enabled = true;
    e.telemetry.epoch_steps = kEpochSteps;
    e.seed = 42;
    const Flag flags[] = {
        {"--sessions", Count{&e.sessions, 1, kMaxSessions}},
        {"--windows", Count{&a.windows, 0, kMaxWindows}},
        {"--warmup", Count{&a.warmup, 0, kMaxWindows}},
        {"--shards", Count{&e.shards, 0, kMaxThreads}},
        {"--repeats", Count{&a.repeats, 1, 100}},
        {"--max-overhead", Number{&a.max_overhead, 0.0, 100.0}},
        // Governor-lite in both arms.
        {"--governor", Switch{&e.governor.enabled}},
        {"--out", Text{&a.out}},
    };
    parse_flags_or_exit(argc, argv, flags);
    return a;
}

/// One timed run: windows simulated per wall second after warmup.
double run_arm(const EngineConfig& cfg, std::size_t warmup,
               std::size_t windows) {
    using clock = std::chrono::steady_clock;
    ShardedEngine engine(cfg);
    engine.run(warmup);
    const std::uint64_t before = engine.summary().windows;
    const auto t0 = clock::now();
    engine.run(windows);
    const double wall =
        std::chrono::duration<double>(clock::now() - t0).count();
    const std::uint64_t after = engine.summary().windows;
    return wall > 0.0 ? static_cast<double>(after - before) / wall : 0.0;
}

double best_of(const EngineConfig& cfg, const Args& a) {
    double best = 0.0;
    for (std::size_t r = 0; r < a.repeats; ++r) {
        best = std::max(best, run_arm(cfg, a.warmup, a.windows));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    std::printf("== bench_telemetry: %zu sessions x %zu windows, best of %zu ==\n",
                args.engine.sessions, args.windows, args.repeats);

    EngineConfig on = args.engine;
    on.telemetry.enabled = true;
    const double wps_off = best_of(args.engine, args);
    const double wps_on = best_of(on, args);
    const double overhead_pct =
        wps_off > 0.0 ? 100.0 * (wps_off - wps_on) / wps_off : 0.0;

    std::printf("telemetry off: %.0f windows/sec\n", wps_off);
    std::printf("telemetry on:  %.0f windows/sec (epoch every %zu steps)\n",
                wps_on, kEpochSteps);
    std::printf("overhead: %.2f%%\n", overhead_pct);

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("telemetry");
    json.key("sessions").value(static_cast<std::uint64_t>(args.engine.sessions));
    json.key("timed_steps").value(static_cast<std::uint64_t>(args.windows));
    json.key("repeats").value(static_cast<std::uint64_t>(args.repeats));
    json.key("epoch_steps").value(static_cast<std::uint64_t>(kEpochSteps));
    json.key("governor").value(args.engine.governor.enabled);
    json.key("windows_per_second_off").value(wps_off);
    json.key("windows_per_second_on").value(wps_on);
    json.key("overhead_percent").value(overhead_pct);
    json.end_object();
    espread::exp::write_text_file(args.out, json.str());
    std::printf("wrote %s\n", args.out.c_str());

    if (args.max_overhead > 0.0 && overhead_pct > args.max_overhead) {
        std::fprintf(stderr,
                     "bench_telemetry: overhead %.2f%% above budget %.2f%%\n",
                     overhead_pct, args.max_overhead);
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
