// Deterministic parallel Monte-Carlo experiment engine.
//
// The figure/table benches (Fig. 8, Table 2, Figs. 11-12, ...) historically
// reported single-seed estimates; streaming-code evaluation conventionally
// averages loss-resilience metrics over many independent channel
// realizations.  MonteCarloRunner fans a SessionConfig template out over N
// trials on a fixed-size ThreadPool:
//
//   * trial i runs with seed sim::derive_seed(template.seed, i) — a random
//     access into the SplitMix64 stream anchored at the template seed, so
//     the i-th trial's entire simulation is a pure function of (config, i),
//     independent of thread count and scheduling order;
//   * each trial reduces its SessionResult into a TrialOutcome on the
//     worker that ran it;
//   * after all trials finish, outcomes are merged IN TRIAL ORDER with the
//     parallel Welford merge (sim::RunningStats::merge), making the final
//     TrialSummary byte-identical for 1 thread and N threads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "exp/flags.hpp"
#include "exp/json.hpp"
#include "obs/metrics.hpp"
#include "protocol/session.hpp"
#include "sim/stats.hpp"

namespace espread::exp {

/// How a run fans out.
struct RunnerOptions {
    std::size_t trials = 32;
    /// 0 = ThreadPool::hardware_threads().
    std::size_t threads = 0;
    /// --out=FILE: where the bench writes its BENCH_*.json (empty = the
    /// bench's hardcoded default name).
    std::string out_path;
    /// --trace=FILE: additionally run one traced session (trial 0's
    /// realization) and write a Chrome trace-event JSON there.
    std::string trace_path;
};

/// The Monte-Carlo benches' flag table, writing into `opts`:
/// `--trials` (1..kMaxTrials), `--threads` (0..kMaxThreads), `--out`,
/// `--trace`.
std::array<Flag, 4> runner_flags(RunnerOptions& opts);

/// Parses a Monte-Carlo bench's argv against runner_flags, starting from
/// `defaults`.  Any other argument, or a bad value, prints the error and
/// exits 2.
RunnerOptions parse_runner_args(int argc, const char* const* argv,
                                RunnerOptions defaults = {});

/// Per-trial reduction of one SessionResult (computed on the worker).
struct TrialOutcome {
    std::uint64_t seed = 0;
    sim::RunningStats window_clf;     ///< per-window CLF within the trial
    double alf = 0.0;                 ///< whole-trial aggregate loss factor
    std::size_t unit_losses = 0;
    std::size_t slots = 0;
    std::size_t retransmissions = 0;
    std::size_t windows = 0;
    obs::Histogram clf_histogram;     ///< per-window CLF counts
    obs::MetricsRegistry metrics;     ///< per-session registry (if collected)
};

/// Reduction over all trials of one configuration.
struct TrialSummary {
    std::size_t trials = 0;
    std::size_t threads = 0;

    sim::RunningStats clf_mean;   ///< distribution of per-trial mean CLF
    sim::RunningStats clf_dev;    ///< distribution of per-trial CLF deviation
    sim::RunningStats window_clf; ///< pooled per-window CLF over all trials
    sim::RunningStats alf;        ///< distribution of per-trial ALF
    sim::RunningStats retransmissions;  ///< per-trial retransmission totals
    obs::Histogram clf_histogram; ///< pooled per-window CLF counts
    /// Per-trial registries merged in trial order (empty unless the
    /// template config sets collect_metrics).  Deterministic across thread
    /// counts, like every other field.
    obs::MetricsRegistry metrics;
    std::size_t total_windows = 0;

    double wall_seconds = 0.0;
    /// Simulated buffer windows completed per wall-clock second.
    double windows_per_second = 0.0;
};

/// Fans a SessionConfig over N seeds; see file comment for the determinism
/// contract.
class MonteCarloRunner {
public:
    /// Resolves threads == 0 to the hardware concurrency and starts the
    /// pool; the pool is reused across run() calls.
    explicit MonteCarloRunner(RunnerOptions options);
    ~MonteCarloRunner();

    MonteCarloRunner(const MonteCarloRunner&) = delete;
    MonteCarloRunner& operator=(const MonteCarloRunner&) = delete;

    std::size_t trials() const noexcept { return options_.trials; }
    std::size_t threads() const noexcept;

    /// Runs `trials()` sessions of `template_config` (seeds derived from
    /// template_config.seed) and reduces them.  Throws if any trial's
    /// config fails validation.
    TrialSummary run(const proto::SessionConfig& template_config) const;

private:
    struct Impl;
    RunnerOptions options_;
    std::unique_ptr<Impl> impl_;
};

/// How far `higher`'s mean CLF lies above `lower`'s, in standard errors
/// of that difference: (mean_h - mean_l) / sqrt(s_h^2/T_h + s_l^2/T_l)
/// over the per-trial means (clf_mean), with s^2 the sample variance.
/// +inf when the per-trial means do not vary and the gap is positive.
double clf_gap_standard_errors(const TrialSummary& higher,
                               const TrialSummary& lower);

/// Appends `summary` as a JSON object under the writer's current position:
/// {"trials":..,"threads":..,"wall_seconds":..,"windows_per_second":..,
///  "clf_mean":{stats},...,"clf_histogram":{append_histogram},
///  "metrics":{...}}.
/// The "metrics" object is omitted when the merged registry is empty.
void append_summary(JsonWriter& json, const TrialSummary& summary);

/// Appends a RunningStats object: {"count","mean","dev","min","max"}.
void append_stats(JsonWriter& json, const sim::RunningStats& stats);

/// Runs ONE session of `cfg` under trial 0's seed (sim::derive_seed(seed,
/// 0) — the same realization MonteCarloRunner::run gives its first trial)
/// with a TraceRecorder attached, and writes the Chrome trace-event JSON
/// to `path`.  This is how benches honor --trace=FILE without perturbing
/// the parallel run.
void write_session_trace(proto::SessionConfig cfg, const std::string& path);

}  // namespace espread::exp
