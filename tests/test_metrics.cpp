#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace {

using espread::aggregate_loss_count;
using espread::consecutive_loss;
using espread::ContinuityMeter;
using espread::ContinuityReport;
using espread::loss_runs;
using espread::LossMask;
using espread::measure_continuity;

// Paper Fig. 1: two streams, both with aggregate loss 2/4, but stream 1 has
// its losses back-to-back (CLF 2) while stream 2 spreads them (CLF 1).
TEST(Metrics, Figure1Streams) {
    const LossMask stream1{true, false, false, true};
    const LossMask stream2{false, true, false, true};
    const ContinuityReport r1 = measure_continuity(stream1);
    const ContinuityReport r2 = measure_continuity(stream2);
    EXPECT_EQ(r1.unit_losses, 2u);
    EXPECT_EQ(r2.unit_losses, 2u);
    EXPECT_DOUBLE_EQ(r1.alf, 0.5);
    EXPECT_DOUBLE_EQ(r2.alf, 0.5);
    EXPECT_EQ(r1.clf, 2u);
    EXPECT_EQ(r2.clf, 1u);
}

TEST(Metrics, LossRunsEnumeratesMaximalRuns) {
    EXPECT_EQ(loss_runs({true, false, false, true, false}),
              (std::vector<std::size_t>{2, 1}));
    EXPECT_EQ(loss_runs({false, false, false}), (std::vector<std::size_t>{3}));
    EXPECT_TRUE(loss_runs(LossMask{true, true}).empty());
    EXPECT_TRUE(loss_runs(LossMask{}).empty());
}

TEST(Metrics, ConsecutiveLossEdgeCases) {
    EXPECT_EQ(consecutive_loss(LossMask{}), 0u);
    EXPECT_EQ(consecutive_loss({true, true, true}), 0u);
    EXPECT_EQ(consecutive_loss({false, false, false}), 3u);
    EXPECT_EQ(consecutive_loss({false, true, false, false}), 2u);
}

TEST(Metrics, AggregateLossCounts) {
    EXPECT_EQ(aggregate_loss_count(LossMask{}), 0u);
    EXPECT_EQ(aggregate_loss_count({false, true, false}), 2u);
}

TEST(Metrics, EmptyMaskReport) {
    const ContinuityReport r = measure_continuity(LossMask{});
    EXPECT_EQ(r.slots, 0u);
    EXPECT_EQ(r.clf, 0u);
    EXPECT_DOUBLE_EQ(r.alf, 0.0);
}

TEST(ContinuityMeter, WindowBoundariesDoNotMergeRuns) {
    ContinuityMeter m;
    // Losses at the tail of window 1 and head of window 2 stay separate.
    m.add_window({true, true, false, false});
    m.add_window({false, false, true, true});
    EXPECT_EQ(m.total().clf, 2u);
    EXPECT_EQ(m.total().unit_losses, 4u);
    EXPECT_EQ(m.total().slots, 8u);
    EXPECT_DOUBLE_EQ(m.total().alf, 0.5);
}

TEST(ContinuityMeter, TotalsTrackWorstWindowClf) {
    ContinuityMeter m;
    m.add_window({false, true, true, true});
    m.add_window({true, false, false, false});
    EXPECT_EQ(m.windows(), 2u);
    EXPECT_EQ(m.total().clf, 3u);
}

// The in-place measure of a slice equals the measure of a copy of it,
// and a window fed as its report counts like the window itself: the
// Session measures each playback window once and feeds the report on.
TEST(ContinuityMeter, SliceReportsMatchCopiedWindows) {
    espread::sim::Rng rng{23};
    ContinuityMeter by_mask, by_report;
    for (int trial = 0; trial < 500; ++trial) {
        LossMask mask(rng.uniform_int(0, 90));
        for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.bernoulli(0.6);
        const std::size_t first = rng.uniform_int(0, mask.size());
        const std::size_t last = rng.uniform_int(first, mask.size());
        const LossMask slice(mask.begin() + static_cast<std::ptrdiff_t>(first),
                             mask.begin() + static_cast<std::ptrdiff_t>(last));
        const ContinuityReport in_place = measure_continuity(mask, first, last);
        const ContinuityReport copied = measure_continuity(slice);
        ASSERT_EQ(in_place.slots, copied.slots);
        ASSERT_EQ(in_place.unit_losses, copied.unit_losses);
        ASSERT_EQ(in_place.clf, copied.clf);
        ASSERT_EQ(in_place.alf, copied.alf);
        by_mask.add_window(slice);
        by_report.add(in_place);
    }
    EXPECT_EQ(by_report.windows(), by_mask.windows());
    EXPECT_EQ(by_report.total().slots, by_mask.total().slots);
    EXPECT_EQ(by_report.total().unit_losses, by_mask.total().unit_losses);
    EXPECT_EQ(by_report.total().clf, by_mask.total().clf);
    EXPECT_EQ(by_report.total().alf, by_mask.total().alf);
}

// Property check of the engine's raw-word run walker against the scalar
// metrics: delivery masks converted to loss-polarity words (set bit =
// loss, tail clear) must give walk_set_runs() the runs of loss_runs(), in
// order, and the longest of them as consecutive_loss(); the runs sum to
// aggregate_loss_count().
void expect_walk_matches(const LossMask& delivered) {
    std::vector<std::uint64_t> loss_words((delivered.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
        if (!delivered[i]) loss_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    std::vector<std::size_t> runs;
    const std::size_t longest = espread::walk_set_runs(
        loss_words.data(), loss_words.size(),
        [&runs](std::size_t run) { runs.push_back(run); });
    EXPECT_EQ(longest, consecutive_loss(delivered));
    EXPECT_EQ(runs, loss_runs(delivered));
    std::size_t total = 0;
    for (const std::size_t r : runs) total += r;
    EXPECT_EQ(total, aggregate_loss_count(delivered));
}

TEST(RawWordMetrics, MatchScalarMetricsOnRandomMasks) {
    espread::sim::Rng rng(11);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{24}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{200}}) {
        for (int trial = 0; trial < 50; ++trial) {
            LossMask delivered(n);
            const double p_loss = rng.uniform();
            for (std::size_t i = 0; i < n; ++i) delivered[i] = !rng.bernoulli(p_loss);
            SCOPED_TRACE("n=" + std::to_string(n) + " trial=" + std::to_string(trial));
            expect_walk_matches(delivered);
        }
    }
}

TEST(RawWordMetrics, WordBoundaryRuns) {
    // Runs straddling bits 63/64/65 are where carry bugs live.
    for (const std::size_t start : {60u, 62u, 63u, 64u, 65u}) {
        for (const std::size_t len : {1u, 2u, 3u, 4u, 64u, 65u, 130u}) {
            LossMask m(256, true);
            for (std::size_t i = start; i < std::min<std::size_t>(start + len, 256); ++i) {
                m[i] = false;
            }
            SCOPED_TRACE("start=" + std::to_string(start) + " len=" + std::to_string(len));
            expect_walk_matches(m);
        }
    }
}

TEST(RawWordMetrics, AllSetAndAllClearWords) {
    const auto walk = [](const std::vector<std::uint64_t>& words) {
        return espread::walk_set_runs(words.data(), words.size(),
                                      [](std::size_t) {});
    };
    EXPECT_EQ(walk(std::vector<std::uint64_t>(3, 0)), 0u);
    EXPECT_EQ(walk(std::vector<std::uint64_t>(3, ~std::uint64_t{0})), 192u);
}

// The engine keeps each window's losses as a packed bit mask (one bit per
// slot, tail clear); these check that representation of every mask size
// across the word boundaries against the LossMask reference.
TEST(BitMask, MetricsMatchReferenceOnRandomMasks) {
    espread::sim::Rng rng(2024);
    for (const double p_loss : {0.05, 0.3, 0.7, 0.95}) {
        for (std::size_t n = 0; n <= 192; ++n) {
            LossMask delivered(n);
            for (std::size_t i = 0; i < n; ++i) delivered[i] = !rng.bernoulli(p_loss);
            SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p_loss));
            expect_walk_matches(delivered);
        }
    }
}

TEST(BitMask, AllLostAndAllDelivered) {
    for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        expect_walk_matches(LossMask(n, false));
        expect_walk_matches(LossMask(n, true));
        EXPECT_EQ(consecutive_loss(LossMask(n, false)), n);
        EXPECT_EQ(aggregate_loss_count(LossMask(n, false)), n);
        EXPECT_EQ(consecutive_loss(LossMask(n, true)), 0u);
        EXPECT_EQ(aggregate_loss_count(LossMask(n, true)), 0u);
    }
}

}  // namespace
