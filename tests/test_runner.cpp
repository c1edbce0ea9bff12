// Tests for the parallel Monte-Carlo experiment engine (exp::ThreadPool,
// exp::MonteCarloRunner) and the scratch-buffer permutation paths it
// multiplies: results must be byte-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cpo.hpp"
#include "core/permutation.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "exp/thread_pool.hpp"
#include "sim/rng.hpp"

namespace {

using espread::Permutation;
using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::RunnerOptions;
using espread::exp::ThreadPool;
using espread::exp::TrialSummary;
using espread::proto::SessionConfig;
using espread::proto::StreamKind;

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i) {
        pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not deadlock
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ClampsZeroThreadsToOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 1);
}

// ---- seed derivation -----------------------------------------------------

TEST(DeriveSeed, IsDeterministicAndIndexSensitive) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t s = espread::sim::derive_seed(42, i);
        EXPECT_EQ(s, espread::sim::derive_seed(42, i));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u);  // no collisions across trial indices
    EXPECT_NE(espread::sim::derive_seed(1, 0), espread::sim::derive_seed(2, 0));
}

// ---- MonteCarloRunner ----------------------------------------------------

SessionConfig small_config() {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;  // dependency-free: fast sessions
    cfg.stream.ldus_per_window = 24;
    cfg.num_windows = 6;
    cfg.data_loss = {0.92, 0.6};
    cfg.feedback_loss = {0.92, 0.6};
    cfg.seed = 42;
    return cfg;
}

RunnerOptions runner_opts(std::size_t trials, std::size_t threads) {
    RunnerOptions opts;
    opts.trials = trials;
    opts.threads = threads;
    return opts;
}

void expect_stats_identical(const espread::sim::RunningStats& a,
                            const espread::sim::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(MonteCarloRunner, SummaryIsBitIdenticalAcrossThreadCounts) {
    const SessionConfig cfg = small_config();
    constexpr std::size_t kTrials = 12;

    MonteCarloRunner single(runner_opts(kTrials, 1));
    const std::size_t many_threads =
        std::max<std::size_t>(4, ThreadPool::hardware_threads());
    MonteCarloRunner parallel(runner_opts(kTrials, many_threads));
    ASSERT_GT(parallel.threads(), 1u);

    const TrialSummary a = single.run(cfg);
    const TrialSummary b = parallel.run(cfg);

    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.total_windows, b.total_windows);
    expect_stats_identical(a.clf_mean, b.clf_mean);
    expect_stats_identical(a.clf_dev, b.clf_dev);
    expect_stats_identical(a.window_clf, b.window_clf);
    expect_stats_identical(a.alf, b.alf);
    expect_stats_identical(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.clf_histogram, b.clf_histogram);

    // The JSON rendering (minus the timing fields) is the byte-level
    // contract benches persist; spot-check one stats object end to end.
    JsonWriter ja, jb;
    espread::exp::append_stats(ja, a.window_clf);
    espread::exp::append_stats(jb, b.window_clf);
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(MonteCarloRunner, MergedMetricsAreBitIdenticalAcrossThreadCounts) {
    SessionConfig cfg = small_config();
    cfg.collect_metrics = true;
    constexpr std::size_t kTrials = 12;

    MonteCarloRunner single(runner_opts(kTrials, 1));
    MonteCarloRunner parallel(
        runner_opts(kTrials,
                    std::max<std::size_t>(4, ThreadPool::hardware_threads())));

    const TrialSummary a = single.run(cfg);
    const TrialSummary b = parallel.run(cfg);

    ASSERT_FALSE(a.metrics.empty());
    JsonWriter ja, jb;
    espread::obs::append_metrics(ja, a.metrics);
    espread::obs::append_metrics(jb, b.metrics);
    EXPECT_EQ(ja.str(), jb.str());

    // Sanity on the merged registry: one window_clf sample per window.
    const auto* clf = a.metrics.find_histogram("window_clf");
    ASSERT_NE(clf, nullptr);
    EXPECT_EQ(clf->total(), a.total_windows);
}

// D2 regression (drive-by audit of the obs/exp merge paths): a registry's
// serialization must not depend on the order keys were inserted or
// registries were merged in.  Slots are indexed by the sorted contract
// table, so iteration order is key order by construction.
TEST(MonteCarloRunner, MetricsSerializationIndependentOfInsertionAndMergeOrder) {
    using espread::obs::HistogramMetric;
    using espread::obs::Metric;
    using espread::obs::MetricsRegistry;
    const Metric counters[] = {"rlc_rank", "acks_applied", "retransmissions"};
    const HistogramMetric hists[] = {"window_clf", "loss_run_length",
                                     "governor_bound"};
    const std::size_t n = std::size(counters);
    static_assert(std::size(hists) == std::size(counters));
    MetricsRegistry fwd, rev;
    for (std::size_t i = 0; i < n; ++i) {
        fwd.add(counters[i], i + 1);
        fwd.hist(hists[i]).record(i);
    }
    for (std::size_t i = n; i-- > 0;) {
        rev.add(counters[i], i + 1);
        rev.hist(hists[i]).record(i);
    }

    MetricsRegistry ab, ba;
    ab.merge(fwd);
    ab.merge(rev);
    ba.merge(rev);
    ba.merge(fwd);

    JsonWriter ja, jb;
    espread::obs::append_metrics(ja, ab);
    espread::obs::append_metrics(jb, ba);
    EXPECT_EQ(ja.str(), jb.str());

    // Iteration (and therefore merge and serialization) order is the
    // sorted key order, independent of insertion history.
    std::string_view prev;
    for (const auto& [key, value] : ab.counters()) {
        EXPECT_LT(prev, key);
        prev = key;
    }
    EXPECT_EQ(ab.counters().size(), n);
    EXPECT_EQ(ab.histograms().size(), n);
    EXPECT_EQ(ab.counter("rlc_rank"), 2u);  // delta 1 from each source registry
    EXPECT_EQ(ab.find_histogram("window_clf")->total(), 2u);
}

TEST(MonteCarloRunner, MetricsOmittedWhenNotCollected) {
    MonteCarloRunner runner(runner_opts(2, 1));
    const TrialSummary s = runner.run(small_config());
    EXPECT_TRUE(s.metrics.empty());
    JsonWriter j;
    espread::exp::append_summary(j, s);
    EXPECT_EQ(j.str().find("\"metrics\""), std::string::npos);
}

TEST(MonteCarloRunner, RepeatedRunsAreIdentical) {
    MonteCarloRunner runner(runner_opts(8, 0));
    const TrialSummary a = runner.run(small_config());
    const TrialSummary b = runner.run(small_config());
    expect_stats_identical(a.window_clf, b.window_clf);
    expect_stats_identical(a.alf, b.alf);
}

TEST(MonteCarloRunner, TrialsSeeDifferentChannelRealizations) {
    MonteCarloRunner runner(runner_opts(8, 2));
    const TrialSummary s = runner.run(small_config());
    EXPECT_EQ(s.trials, 8u);
    EXPECT_EQ(s.total_windows, 8u * 6u);
    EXPECT_EQ(s.window_clf.count(), 8u * 6u);
    // Independent Gilbert realizations: per-trial ALF must not be constant.
    EXPECT_GT(s.alf.max(), s.alf.min());
}

TEST(MonteCarloRunner, CountsWindowsAndHistogramConsistently) {
    MonteCarloRunner runner(runner_opts(4, 2));
    const TrialSummary s = runner.run(small_config());
    EXPECT_EQ(s.clf_histogram.total(), s.total_windows);
    EXPECT_EQ(s.window_clf.count(), s.total_windows);
}

TEST(MonteCarloRunner, ValidatesTemplateConfig) {
    MonteCarloRunner runner(runner_opts(2, 1));
    SessionConfig cfg = small_config();
    cfg.num_windows = 0;
    EXPECT_THROW(runner.run(cfg), std::invalid_argument);
}

TEST(ParseRunnerArgs, ParsesTrialsAndThreads) {
    const char* argv_c[] = {"bench", "--trials=64", "--threads=3"};
    const auto opts = espread::exp::parse_runner_args(
        3, const_cast<char**>(argv_c), runner_opts(32, 0));
    EXPECT_EQ(opts.trials, 64u);
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_TRUE(opts.out_path.empty());
    EXPECT_TRUE(opts.trace_path.empty());
}

// A bad value is refused with a message naming the flag (the bench
// prints it and exits 2), never replaced by the default.  strtoull would
// wrap a negative count to 2^64 - n and saturate one past ULLONG_MAX.
TEST(ParseRunnerArgs, RejectsMalformedFlags) {
    const std::pair<std::vector<std::string>, const char*> cases[] = {
        {{"--trials=abc"}, "--trials"},
        {{"--trials=-3"}, "--trials"},
        {{"--threads=-1"}, "--threads"},
        {{"--trials=99999999999999999999"}, "--trials"},
        {{"--trials= 3"}, "--trials"},
        {{"--trials=+3"}, "--trials"},
        {{"--trials=5x"}, "--trials"},
        {{"--trials", "1e30"}, "--trials"},
        {{"--trials=0"}, "--trials"},
        {{"--threads"}, "--threads"},
        {{"--out="}, "--out"},
        {{"--trace"}, "--trace"},
        {{"--bogus=1"}, "--bogus"},
        {{"stray"}, "'stray'"},
    };
    for (const auto& [args, flag] : cases) {
        RunnerOptions o = runner_opts(32, 2);
        const std::string error =
            espread::exp::parse_flags(args, espread::exp::runner_flags(o));
        EXPECT_EQ(error.find(flag), 0u) << args.front() << ": " << error;
    }
}

// The caps are checked here, in-process: no binary is started at a cap.
TEST(ParseRunnerArgs, CountsStopAtTheirCaps) {
    using espread::exp::kMaxThreads;
    using espread::exp::kMaxTrials;
    RunnerOptions o = runner_opts(32, 2);
    const std::vector<std::string> at_cap = {
        "--trials=" + std::to_string(kMaxTrials),
        "--threads=" + std::to_string(kMaxThreads)};
    EXPECT_EQ(espread::exp::parse_flags(at_cap, espread::exp::runner_flags(o)),
              "");
    EXPECT_EQ(o.trials, kMaxTrials);
    EXPECT_EQ(o.threads, kMaxThreads);
    for (const std::string& over :
         {"--trials=" + std::to_string(kMaxTrials + 1),
          "--threads=" + std::to_string(kMaxThreads + 1)}) {
        EXPECT_NE(espread::exp::parse_flags(std::vector<std::string>{over},
                                            espread::exp::runner_flags(o)),
                  "")
            << over;
    }
}

TEST(ParseRunnerArgs, ParsesOutAndTracePaths) {
    const char* argv_c[] = {"bench", "--out=results.json", "--trace", "t.json"};
    const auto opts =
        espread::exp::parse_runner_args(4, const_cast<char**>(argv_c));
    EXPECT_EQ(opts.out_path, "results.json");
    EXPECT_EQ(opts.trace_path, "t.json");
}

TEST(WriteSessionTrace, MatchesTrialZeroRealization) {
    const std::string path =
        ::testing::TempDir() + "/espread_runner_trace.json";
    espread::exp::write_session_trace(small_config(), path);
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"PacketSent\""), std::string::npos);
}

// ---- scratch-buffer permutation paths ------------------------------------

TEST(Permutation, ApplyIntoMatchesApply) {
    espread::sim::Rng rng{5};
    const Permutation p =
        espread::calculate_permutation(96, 17).perm;
    std::vector<int> items(96);
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i] = static_cast<int>(rng.next_u64() & 0xFFFF);
    }
    std::vector<int> scratch;
    p.apply_into(items, scratch);
    EXPECT_EQ(scratch, p.apply(items));
    p.unapply_into(items, scratch);
    EXPECT_EQ(scratch, p.unapply(items));
    // Round trip through the scratch paths restores the original.
    std::vector<int> tx, back;
    p.apply_into(items, tx);
    p.unapply_into(tx, back);
    EXPECT_EQ(back, items);
}

TEST(Permutation, MoveApplyMatchesCopyApply) {
    const Permutation p = espread::calculate_permutation(24, 7).perm;
    std::vector<std::string> items;
    for (int i = 0; i < 24; ++i) items.push_back("frame-" + std::to_string(i));
    const auto copied = p.apply(items);
    auto moved = p.apply(std::move(items));
    EXPECT_EQ(moved, copied);
}

// ---- JSON writer ----------------------------------------------------------

TEST(JsonWriter, EmitsWellFormedNestedStructure) {
    JsonWriter j;
    j.begin_object();
    j.key("name").value("fig8");
    j.key("trials").value(std::uint64_t{32});
    j.key("alf").value(0.25);
    j.key("ok").value(true);
    j.key("panels").begin_array();
    j.begin_object().key("p_bad").value(0.6).end_object();
    j.begin_object().key("p_bad").value(0.7).end_object();
    j.end_array();
    j.end_object();
    EXPECT_EQ(j.str(),
              "{\"name\":\"fig8\",\"trials\":32,\"alf\":0.25,\"ok\":true,"
              "\"panels\":[{\"p_bad\":0.59999999999999998},"
              "{\"p_bad\":0.69999999999999996}]}");
}

TEST(JsonWriter, EscapesStrings) {
    JsonWriter j;
    j.value("a\"b\\c\nd");
    EXPECT_EQ(j.str(), "\"a\\\"b\\\\c\\nd\"");
}

}  // namespace
