// Multi-session scale bench: the data-oriented engine under load.
//
// Drives `--sessions` concurrent adaptive sessions (default 100k) through
// the sharded SoA engine on the Fig. 8 setup (24-LDU windows, Gilbert
// 0.92/0.6 on both paths, alpha = 1/2, ACK delay 2), with seeded session
// churn, and reports steady-state aggregate throughput:
//   * windows/sec   — session-windows simulated per wall second
//   * sessions/sec  — session completions per wall second (churn on)
//   * p50/p99 step latency — wall time of one engine step (one window for
//     every active session)
//
// A comparison arm runs the same workload shape through the per-object
// discrete-event Session loop (MonteCarloRunner) at the SAME thread
// count; --require-speedup=X exits nonzero unless the engine beats it by
// X-fold, which CI enforces at 3x.  Results land in BENCH_scale.json
// (override with --out=FILE); the deterministic "summary" section is
// byte-identical for any --shards value.
//
// --telemetry turns on the per-shard telemetry slabs and emits the epoch
// snapshot series (TELEMETRY_scale.json, --telemetry-out=FILE) for
// tools/espread_report; --governor enables governor-lite outage
// supervision so the dwell histograms carry data.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exp/flags.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/session.hpp"

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::ShardedEngine;
using espread::exp::JsonWriter;

namespace {

struct Args {
    EngineConfig engine;                // Fig. 8 channel + window defaults
    std::size_t windows = 150;          // timed engine steps
    std::size_t warmup = 8;             // untimed steps before measurement
    std::size_t compare_sessions = 64;  // 0 disables the Session-loop arm
    double require_speedup = 0.0;       // 0 = report only
    std::string out = "BENCH_scale.json";
    std::string telemetry_out = "TELEMETRY_scale.json";
};

Args parse_args(int argc, char** argv) {
    using namespace espread::exp;
    Args a;
    // Churn floor, idle gap and the FEC-lite overhead ratio keep
    // EngineConfig's defaults: 16 windows, 0 windows and 1/10.
    EngineConfig& e = a.engine;
    e.sessions = 100000;
    e.shards = 0;  // hardware threads
    e.telemetry.epoch_steps = 16;
    e.seed = 42;
    const Flag flags[] = {
        {"--sessions", Count{&e.sessions, 1, kMaxSessions}},
        {"--windows", Count{&a.windows, 0, kMaxWindows}},
        {"--warmup", Count{&a.warmup, 0, kMaxWindows}},
        {"--shards", Count{&e.shards, 0, kMaxThreads}},
        // Mean session lifetime in windows (0 turns churn off), up to
        // EngineConfig::validate's bound.
        {"--churn-mean",
         Number{&e.churn.mean_lifetime_windows, 0.0, 4294967295.0}},
        {"--compare-sessions", Count{&a.compare_sessions, 0, kMaxTrials}},
        {"--require-speedup", Number{&a.require_speedup, 0.0, 1e6}},
        {"--telemetry", Switch{&e.telemetry.enabled}},
        {"--telemetry-epoch", Count{&e.telemetry.epoch_steps, 1, kMaxWindows}},
        {"--governor", Switch{&e.governor.enabled}},
        {"--fec", Switch{&e.fec.enabled}},
        {"--telemetry-out", Text{&a.telemetry_out}},
        {"--out", Text{&a.out}},
    };
    parse_flags_or_exit(argc, argv, flags);
    e.churn.enabled = e.churn.mean_lifetime_windows > 0.0;
    return a;
}

double percentile(std::vector<double> sorted_src, double p) {
    if (sorted_src.empty()) return 0.0;
    std::sort(sorted_src.begin(), sorted_src.end());
    const double rank = p * static_cast<double>(sorted_src.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = lo + 1 < sorted_src.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return sorted_src[lo] * (1.0 - frac) + sorted_src[hi] * frac;
}

/// Same workload shape through the per-object Session loop at the same
/// thread count: windows/sec of the discrete-event engine.
double session_loop_windows_per_second(std::size_t sessions,
                                       std::size_t threads) {
    espread::exp::RunnerOptions opts;
    opts.trials = sessions;
    opts.threads = threads;
    espread::exp::MonteCarloRunner runner(opts);
    espread::proto::SessionConfig cfg;  // defaults match the Fig. 8 setup
    cfg.scheme = espread::proto::Scheme::kLayeredSpread;
    cfg.num_windows = 100;
    cfg.seed = 42;
    return runner.run(cfg).windows_per_second;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    // espread-lint: allow(D1) wall-clock throughput bracket around measured engine runs; never feeds seeds or the sim clock
    using clock = std::chrono::steady_clock;

    const EngineConfig& cfg = args.engine;
    try {
        cfg.validate();
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bench_scale: %s\n", e.what());
        return 1;
    }
    ShardedEngine engine(cfg);
    std::printf("== bench_scale: %zu sessions x %zu windows, %zu shard(s) ==\n",
                cfg.sessions, args.windows, engine.shards());

    engine.run(args.warmup);
    const EngineSummary before = engine.summary();

    std::vector<double> step_ms;
    step_ms.reserve(args.windows);
    const auto t0 = clock::now();
    for (std::size_t w = 0; w < args.windows; ++w) {
        const auto s0 = clock::now();
        engine.step();
        const auto s1 = clock::now();
        step_ms.push_back(
            std::chrono::duration<double, std::milli>(s1 - s0).count());
    }
    const double wall = std::chrono::duration<double>(clock::now() - t0).count();

    const EngineSummary after = engine.summary();
    const double windows_run =
        static_cast<double>(after.windows - before.windows);
    const double completions =
        static_cast<double>(after.sessions_completed - before.sessions_completed);
    const double wps = wall > 0.0 ? windows_run / wall : 0.0;
    const double sps = wall > 0.0 ? completions / wall : 0.0;
    const double p50 = percentile(step_ms, 0.50);
    const double p99 = percentile(step_ms, 0.99);

    std::printf("steady state: %.0f windows/sec, %.0f session completions/sec\n",
                wps, sps);
    std::printf("step latency: p50 %.3f ms, p99 %.3f ms (%zu steps)\n",
                p50, p99, step_ms.size());
    std::printf("active sessions at end: %zu of %zu (%llu spawned, %llu completed)\n",
                after.active_sessions, after.sessions,
                static_cast<unsigned long long>(after.sessions_spawned),
                static_cast<unsigned long long>(after.sessions_completed));
    std::printf("quality: CLF mean %.3f dev %.3f max %llu, ALF %.4f\n",
                after.clf_mean, after.clf_dev,
                static_cast<unsigned long long>(after.clf_max), after.alf);
    if (after.fec) {
        std::printf("fec-lite: %llu repair packets, %llu lossy windows "
                    "repaired, %llu unrepaired\n",
                    static_cast<unsigned long long>(after.fec_repair_packets),
                    static_cast<unsigned long long>(after.fec_windows_recovered),
                    static_cast<unsigned long long>(after.fec_windows_unrecovered));
    }

    double loop_wps = 0.0;
    double speedup = 0.0;
    if (args.compare_sessions > 0) {
        loop_wps = session_loop_windows_per_second(args.compare_sessions,
                                                   engine.shards());
        speedup = loop_wps > 0.0 ? wps / loop_wps : 0.0;
        std::printf("per-object Session loop (%zu sessions, %zu threads): "
                    "%.0f windows/sec -> engine speedup %.1fx\n",
                    args.compare_sessions, engine.shards(), loop_wps, speedup);
    }

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("scale");
    json.key("sessions").value(static_cast<std::uint64_t>(cfg.sessions));
    json.key("shards").value(static_cast<std::uint64_t>(engine.shards()));
    json.key("warmup_steps").value(static_cast<std::uint64_t>(args.warmup));
    json.key("timed_steps").value(static_cast<std::uint64_t>(args.windows));
    json.key("wall_seconds").value(wall);
    json.key("windows_per_second").value(wps);
    json.key("sessions_per_second").value(sps);
    json.key("p50_step_ms").value(p50);
    json.key("p99_step_ms").value(p99);
    if (args.compare_sessions > 0) {
        json.key("comparison").begin_object();
        json.key("sessions").value(static_cast<std::uint64_t>(args.compare_sessions));
        json.key("threads").value(static_cast<std::uint64_t>(engine.shards()));
        json.key("session_loop_windows_per_second").value(loop_wps);
        json.key("speedup").value(speedup);
        json.end_object();
    }
    json.key("summary");
    espread::engine::append_summary(json, after);
    json.end_object();
    espread::exp::write_text_file(args.out, json.str());
    std::printf("wrote %s\n", args.out.c_str());

    // With --telemetry the engine captured a snapshot every
    // --telemetry-epoch steps; emit the series for tools/espread_report.
    if (engine.telemetry() != nullptr && !engine.telemetry()->empty()) {
        espread::obs::telemetry::write_snapshot_series(args.telemetry_out,
                                                       *engine.telemetry());
        std::printf("wrote %s (%zu epochs)\n", args.telemetry_out.c_str(),
                    engine.telemetry()->snapshots().size());
    }

    if (args.require_speedup > 0.0 && speedup < args.require_speedup) {
        std::fprintf(stderr,
                     "bench_scale: engine speedup %.2fx below required %.2fx\n",
                     speedup, args.require_speedup);
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
