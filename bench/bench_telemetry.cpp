// Telemetry overhead bench: the cost of the fleet telemetry plane.
//
// Runs the identical engine workload (Fig. 8 channel, seeded churn) with
// telemetry off and on (per-shard slabs + epoch snapshots) and reports the
// relative windows/sec overhead.  Each repeat runs both arms back to back,
// alternating which goes first, and yields one paired overhead; the
// report is the median of those pairs with their min and max, so machine
// drift between the arms cancels within a pair and one noisy run cannot
// carry the result.  The acceptance budget for the plane is <= 5% and CI
// can pin the median with --max-overhead=X (exits nonzero above X%).
// Results land in BENCH_telemetry.json (--out=FILE).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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
    std::size_t repeats = 3;         // paired off/on runs
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
    // espread-lint: allow(D1) wall-clock throughput bracket around each timed arm; never feeds seeds or the sim clock
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

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Paired runs: windows/sec of each arm and the overhead in percent, one
/// entry per repeat.
struct Pairs {
    std::vector<double> off, on, overhead_pct;
};

Pairs run_pairs(const EngineConfig& off, const EngineConfig& on,
                const Args& a) {
    Pairs p;
    for (std::size_t r = 0; r < a.repeats; ++r) {
        double wps_off = 0.0;
        double wps_on = 0.0;
        if (r % 2 == 0) {
            wps_off = run_arm(off, a.warmup, a.windows);
            wps_on = run_arm(on, a.warmup, a.windows);
        } else {
            wps_on = run_arm(on, a.warmup, a.windows);
            wps_off = run_arm(off, a.warmup, a.windows);
        }
        p.off.push_back(wps_off);
        p.on.push_back(wps_on);
        p.overhead_pct.push_back(
            wps_off > 0.0 ? 100.0 * (wps_off - wps_on) / wps_off : 0.0);
    }
    return p;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    std::printf("== bench_telemetry: %zu sessions x %zu windows, %zu paired repeats ==\n",
                args.engine.sessions, args.windows, args.repeats);

    EngineConfig on = args.engine;
    on.telemetry.enabled = true;
    const Pairs pairs = run_pairs(args.engine, on, args);
    const double wps_off = median_of(pairs.off);
    const double wps_on = median_of(pairs.on);
    const double overhead_pct = median_of(pairs.overhead_pct);
    const auto [lo, hi] = std::minmax_element(pairs.overhead_pct.begin(),
                                              pairs.overhead_pct.end());

    std::printf("telemetry off: %.0f windows/sec (median)\n", wps_off);
    std::printf("telemetry on:  %.0f windows/sec (median, epoch every %zu steps)\n",
                wps_on, kEpochSteps);
    std::printf("overhead: %.2f%% median of pairs (min %.2f%%, max %.2f%%)\n",
                overhead_pct, *lo, *hi);

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
    json.key("overhead_percent_min").value(*lo);
    json.key("overhead_percent_max").value(*hi);
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
