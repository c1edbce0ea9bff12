// Shared plumbing of the repository benchmark: command-line arguments, the
// result record every workload returns, timing and order statistics, and
// the output fingerprint.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
    return seconds_between(t0, Clock::now());
}

/// Threads every workload uses: two workers (or two engine shards).
inline constexpr std::size_t kWorkers = 2;

/// windows_per_s is this quantile of the timed phase's short-interval
/// throughputs: the speed a shared host sustains when other tenants
/// disturb it least.  They slow every unit alike for seconds to minutes
/// at a time; a high quantile follows the program, a mean or median
/// follows how much of the run fell into a slow stretch.
inline constexpr double kThroughputQuantile = 0.9;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// One named metric of the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Samples behind a median or tail (0 = not an order statistic).
    std::size_t samples = 0;
    /// False for a metric that is printed but left out of the result line
    /// (it did not hold steady enough across runs to gate on).
    bool gated = true;
};

/// What a workload run reports.  `attempted`/`failed` count units: a
/// timed engine step on engine_fleet, a session on the session workloads.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t fingerprint = 0;
    std::vector<Metric> metrics;
    /// Human-readable lines printed before the result line.
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit,
             std::size_t samples = 0, bool gated = true) {
        metrics.push_back(
            Metric{std::move(name), value, std::move(unit), samples, gated});
    }
};

/// Name and unit of one per-layer metric.
struct LayerMetric {
    std::string_view name;
    std::string_view unit;
};

/// Every per-layer metric of the traced run, in report order (README.md
/// documents each).  A traced run reports all of them on every workload;
/// a layer the workload never calls reads 0.
inline constexpr LayerMetric kLayerMetrics[] = {
    // engine_fleet: replayed ShardedEngine::step.
    {"engine.shard_busy_ms", "ms"},
    {"engine.ns_per_session_window", "ns"},
    {"engine.shard_skew", "ratio"},
    {"engine.dispatch_ms", "ms"},
    {"obs.telemetry.capture_ms", "ms"},
    {"obs.telemetry.share", "ratio"},
    {"engine.pool_build_s", "s"},
    {"engine.coverage", "ratio"},
    {"engine.idle_slot_ratio", "ratio"},
    {"engine.ack_delivered_ratio", "ratio"},
    {"fec_lite.recovered_ratio", "ratio"},
    {"nack_lite.requests_per_kwindow", "count"},
    {"nack_lite.repairs_per_request", "ratio"},
    {"governor_lite.non_normal_share", "ratio"},
    // Session workloads: spans plus per-layer replays.
    {"session.construct_us", "us"},
    {"session.run_us_per_window", "us"},
    {"media.us_per_window", "us"},
    {"protocol.planner.us_per_window", "us"},
    {"core.us_per_window", "us"},
    {"protocol.receiver.us_per_window", "us"},
    {"net.channel.us_per_window", "us"},
    {"net.fault.us_per_window", "us"},
    {"protocol.codec.us_per_window", "us"},
    {"fec.us_per_window", "us"},
    {"protocol.recovery.us_per_window", "us"},
    {"protocol.governor.us_per_window", "us"},
    {"session.coverage", "ratio"},
    {"obs.metrics_overhead", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"net.packets_per_window", "count"},
    {"net.sideband_share", "ratio"},
    {"net.corrupt_rejected_per_window", "count"},
    {"protocol.retx_per_window", "count"},
    {"fec.repairs_per_window", "count"},
    {"fec.useful_ratio", "ratio"},
    {"fec.redundant_ratio", "ratio"},
    {"recovery.nacks_per_window", "count"},
    {"recovery.served_ratio", "ratio"},
    {"recovery.shed_ratio", "ratio"},
    {"governor.non_normal_share", "ratio"},
    {"obs.trace_events_per_window", "count"},
    // Every workload: the traced run against its own untraced phase.
    {"bench.traced_windows_per_s", "1/s"},
    {"bench.trace_overhead", "ratio"},
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Median of `v`; 0 when empty.
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// `num / den`, or 0 when `den` is 0 (ratios of work counts whose base can
/// be empty on a workload that bypasses the layer).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// FNV-1a 64-bit hash, chainable through `h`.
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept;

/// Hex rendering of a fingerprint.
std::string hex64(std::uint64_t v);

Outcome run_engine_fleet(const Args& args);
Outcome run_session_workload(const Args& args);

}  // namespace perfbench
