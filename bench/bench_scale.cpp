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
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/session.hpp"

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::ShardedEngine;
using espread::exp::JsonWriter;

namespace {

struct Args {
    std::size_t sessions = 100000;
    std::size_t windows = 150;        // timed engine steps
    std::size_t warmup = 8;           // untimed steps before measurement
    std::size_t shards = 0;           // 0 = hardware threads
    double churn_mean = 64.0;         // mean session lifetime (windows)
    std::size_t churn_min = 16;       // lifetime floor
    double churn_gap = 0.0;           // mean idle gap after departure
    std::size_t compare_sessions = 64;  // 0 disables the Session-loop arm
    double require_speedup = 0.0;       // 0 = report only
    std::string out = "BENCH_scale.json";
    bool telemetry = false;             // per-shard slabs + epoch snapshots
    std::size_t telemetry_epoch = 16;   // engine steps per snapshot epoch
    bool governor = false;              // governor-lite outage supervision
    bool fec = false;                   // FEC-lite window repair arm
    std::size_t fec_num = 1;            // repair overhead ratio numerator
    std::size_t fec_den = 10;           // repair overhead ratio denominator
    std::string telemetry_out = "TELEMETRY_scale.json";
};

bool parse_size(const char* arg, const char* name, std::size_t* out) {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return false;
    *out = static_cast<std::size_t>(std::strtoull(arg + len, nullptr, 10));
    return true;
}

bool parse_double(const char* arg, const char* name, double* out) {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return false;
    *out = std::strtod(arg + len, nullptr);
    return true;
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (parse_size(arg, "--sessions=", &a.sessions)) continue;
        if (parse_size(arg, "--windows=", &a.windows)) continue;
        if (parse_size(arg, "--warmup=", &a.warmup)) continue;
        if (parse_size(arg, "--shards=", &a.shards)) continue;
        if (parse_double(arg, "--churn-mean=", &a.churn_mean)) continue;
        if (parse_size(arg, "--churn-min=", &a.churn_min)) continue;
        if (parse_double(arg, "--churn-gap=", &a.churn_gap)) continue;
        if (parse_size(arg, "--compare-sessions=", &a.compare_sessions)) continue;
        if (parse_double(arg, "--require-speedup=", &a.require_speedup)) continue;
        if (std::strcmp(arg, "--telemetry") == 0) {
            a.telemetry = true;
            continue;
        }
        if (parse_size(arg, "--telemetry-epoch=", &a.telemetry_epoch)) continue;
        if (std::strcmp(arg, "--governor") == 0) {
            a.governor = true;
            continue;
        }
        if (std::strcmp(arg, "--fec") == 0) {
            a.fec = true;
            continue;
        }
        if (parse_size(arg, "--fec-num=", &a.fec_num)) continue;
        if (parse_size(arg, "--fec-den=", &a.fec_den)) continue;
        if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
            a.telemetry_out = arg + 16;
            continue;
        }
        if (std::strncmp(arg, "--out=", 6) == 0) {
            a.out = arg + 6;
            continue;
        }
        std::fprintf(stderr, "bench_scale: unknown argument %s\n", arg);
    }
    return a;
}

EngineConfig engine_config(const Args& a) {
    EngineConfig cfg;  // Fig. 8 channel + window defaults
    cfg.sessions = a.sessions;
    cfg.shards = a.shards;
    cfg.churn.enabled = a.churn_mean > 0.0;
    cfg.churn.min_lifetime_windows = a.churn_min;
    cfg.churn.mean_lifetime_windows = a.churn_mean;
    cfg.churn.mean_arrival_gap_windows = a.churn_gap;
    cfg.telemetry.enabled = a.telemetry;
    cfg.telemetry.epoch_steps = a.telemetry_epoch;
    cfg.governor.enabled = a.governor;
    cfg.fec.enabled = a.fec;
    cfg.fec.overhead_num = a.fec_num;
    cfg.fec.overhead_den = a.fec_den;
    cfg.seed = 42;
    return cfg;
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
    using clock = std::chrono::steady_clock;

    const EngineConfig cfg = engine_config(args);
    try {
        cfg.validate();
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bench_scale: %s\n", e.what());
        return 1;
    }
    ShardedEngine engine(cfg);
    std::printf("== bench_scale: %zu sessions x %zu windows, %zu shard(s) ==\n",
                args.sessions, args.windows, engine.shards());

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
    json.key("sessions").value(static_cast<std::uint64_t>(args.sessions));
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
