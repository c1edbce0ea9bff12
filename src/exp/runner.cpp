#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <latch>
#include <limits>
#include <vector>

#include "exp/thread_pool.hpp"
#include "sim/rng.hpp"

namespace espread::exp {

namespace {

/// Reduces one finished session into the per-trial accumulator.
TrialOutcome reduce_session(proto::SessionResult r, std::uint64_t seed) {
    TrialOutcome t;
    t.seed = seed;
    t.windows = r.windows.size();
    t.metrics = std::move(r.metrics);
    for (const proto::WindowReport& w : r.windows) {
        t.window_clf.add(static_cast<double>(w.clf));
        t.clf_histogram.record(w.clf);
        t.retransmissions += w.retransmissions;
    }
    t.unit_losses = r.total.unit_losses;
    t.slots = r.total.slots;
    t.alf = r.total.alf;
    return t;
}

}  // namespace

std::array<Flag, 4> runner_flags(RunnerOptions& opts) {
    return {{{"--trials", Count{&opts.trials, 1, kMaxTrials}},
             {"--threads", Count{&opts.threads, 0, kMaxThreads}},
             {"--out", Text{&opts.out_path}},
             {"--trace", Text{&opts.trace_path}}}};
}

RunnerOptions parse_runner_args(int argc, const char* const* argv,
                                RunnerOptions defaults) {
    parse_flags_or_exit(argc, argv, runner_flags(defaults));
    return defaults;
}

struct MonteCarloRunner::Impl {
    explicit Impl(std::size_t threads) : pool(threads) {}
    ThreadPool pool;
};

MonteCarloRunner::MonteCarloRunner(RunnerOptions options) : options_(options) {
    if (options_.trials == 0) options_.trials = 1;
    const std::size_t t = options_.threads == 0 ? ThreadPool::hardware_threads()
                                                : options_.threads;
    options_.threads = t;
    impl_ = std::make_unique<Impl>(t);
}

MonteCarloRunner::~MonteCarloRunner() = default;

std::size_t MonteCarloRunner::threads() const noexcept {
    return impl_->pool.size();
}

TrialSummary MonteCarloRunner::run(
    const proto::SessionConfig& template_config) const {
    template_config.validate();  // fail fast on the submitting thread

    const std::size_t n = options_.trials;
    std::vector<TrialOutcome> outcomes(n);
    // espread-lint: allow(D1) wall-clock bracket for throughput reporting; never feeds seeds or the sim clock
    const auto start = std::chrono::steady_clock::now();

    {
        std::latch done(static_cast<std::ptrdiff_t>(n));
        for (std::size_t i = 0; i < n; ++i) {
            impl_->pool.submit([&, i] {
                proto::SessionConfig cfg = template_config;
                cfg.seed = sim::derive_seed(template_config.seed, i);
                // A trace sink may not be shared across worker threads:
                // only trial 0 keeps the template's sink.
                if (i != 0) cfg.trace = nullptr;
                outcomes[i] = reduce_session(proto::run_session(cfg), cfg.seed);
                done.count_down();
            });
        }
        done.wait();
    }

    const std::chrono::duration<double> wall =
        // espread-lint: allow(D1) closes the wall-clock bracket opened above
        std::chrono::steady_clock::now() - start;

    // Deterministic reduction: trial order, independent of which thread
    // finished when.  RunningStats::merge is the parallel Welford merge, so
    // pooled moments are exact, not averages-of-averages.
    TrialSummary s;
    s.trials = n;
    s.threads = impl_->pool.size();
    for (const TrialOutcome& t : outcomes) {
        s.clf_mean.add(t.window_clf.mean());
        s.clf_dev.add(t.window_clf.deviation());
        s.window_clf.merge(t.window_clf);
        s.alf.add(t.alf);
        s.retransmissions.add(static_cast<double>(t.retransmissions));
        s.clf_histogram.merge(t.clf_histogram);
        s.metrics.merge(t.metrics);
        s.total_windows += t.windows;
    }
    s.wall_seconds = wall.count();
    s.windows_per_second =
        wall.count() > 0.0 ? static_cast<double>(s.total_windows) / wall.count()
                           : 0.0;
    return s;
}

double clf_gap_standard_errors(const TrialSummary& higher,
                               const TrialSummary& lower) {
    const double se = std::sqrt(
        higher.clf_mean.sample_variance() /
            static_cast<double>(higher.clf_mean.count()) +
        lower.clf_mean.sample_variance() /
            static_cast<double>(lower.clf_mean.count()));
    const double gap = higher.clf_mean.mean() - lower.clf_mean.mean();
    if (se > 0.0) return gap / se;
    return gap > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

void append_stats(JsonWriter& json, const sim::RunningStats& stats) {
    json.begin_object();
    json.key("count").value(static_cast<std::uint64_t>(stats.count()));
    json.key("mean").value(stats.mean());
    json.key("dev").value(stats.deviation());
    json.key("min").value(stats.min());
    json.key("max").value(stats.max());
    json.end_object();
}

void append_summary(JsonWriter& json, const TrialSummary& summary) {
    json.begin_object();
    json.key("trials").value(static_cast<std::uint64_t>(summary.trials));
    json.key("threads").value(static_cast<std::uint64_t>(summary.threads));
    json.key("total_windows")
        .value(static_cast<std::uint64_t>(summary.total_windows));
    json.key("wall_seconds").value(summary.wall_seconds);
    json.key("windows_per_second").value(summary.windows_per_second);
    json.key("clf_mean");
    append_stats(json, summary.clf_mean);
    json.key("clf_dev");
    append_stats(json, summary.clf_dev);
    json.key("window_clf");
    append_stats(json, summary.window_clf);
    json.key("alf");
    append_stats(json, summary.alf);
    json.key("retransmissions");
    append_stats(json, summary.retransmissions);
    json.key("clf_histogram");
    obs::append_histogram(json, summary.clf_histogram);
    if (!summary.metrics.empty()) {
        json.key("metrics");
        obs::append_metrics(json, summary.metrics);
    }
    json.end_object();
}

void write_session_trace(proto::SessionConfig cfg, const std::string& path) {
    obs::TraceRecorder recorder(1 << 20);
    cfg.seed = sim::derive_seed(cfg.seed, 0);
    cfg.trace = &recorder;
    proto::run_session(std::move(cfg));
    obs::write_chrome_trace_file(path, recorder.events());
}

}  // namespace espread::exp
