#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "obs/histogram.hpp"

#include <cmath>
#include <cstdint>

namespace {

using espread::obs::Histogram;
using espread::sim::RunningStats;

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.deviation(), 0.0);
}

TEST(RunningStats, SingleSample) {
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownPopulationMoments) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example: population var = 4
    EXPECT_DOUBLE_EQ(s.deviation(), 2.0);
    EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesBulk) {
    RunningStats a;
    RunningStats b;
    RunningStats all;
    for (int i = 0; i < 10; ++i) {
        const double x = 0.37 * i * i - 2.0 * i + 1.0;
        (i < 4 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

// n == 0 and n == 1 have no spread by definition: deviation must read as
// exactly 0 — never NaN from a 0/0 or sqrt of a negative Welford residue.
TEST(RunningStats, DeviationOfEmptyAndSingleIsZeroNotNaN) {
    RunningStats s;
    EXPECT_DOUBLE_EQ(s.deviation(), 0.0);
    EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);  // n - 1 == -1 must not divide
    EXPECT_FALSE(std::isnan(s.deviation()));
    s.add(41.5);
    EXPECT_DOUBLE_EQ(s.deviation(), 0.0);
    EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);  // n - 1 == 0 must not divide
    EXPECT_FALSE(std::isnan(s.deviation()));
}

TEST(RunningStats, MergeOfTwoSingleSamples) {
    RunningStats a;
    a.add(3.0);
    RunningStats b;
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.variance(), 1.0);
    EXPECT_DOUBLE_EQ(a.sample_variance(), 2.0);
    EXPECT_DOUBLE_EQ(a.deviation(), 1.0);
}

TEST(RunningStats, ManyEqualSingleSampleMergesStayExact) {
    // The degenerate shape the Monte-Carlo runner produces for a 1-window
    // session: per-trial stats with one sample each, merged in trial order.
    // All samples equal => spread exactly 0 at every step, never NaN.
    RunningStats acc;
    for (int i = 0; i < 100; ++i) {
        RunningStats one;
        one.add(7.25);
        acc.merge(one);
        ASSERT_DOUBLE_EQ(acc.variance(), 0.0) << "merge " << i;
        ASSERT_FALSE(std::isnan(acc.deviation()));
    }
    EXPECT_EQ(acc.count(), 100u);
    EXPECT_DOUBLE_EQ(acc.mean(), 7.25);
    EXPECT_DOUBLE_EQ(acc.deviation(), 0.0);
}

TEST(RunningStats, CancellationResidueNeverGoesNegative) {
    // Offsetting tiny spread by a huge mean is the classic catastrophic-
    // cancellation trap: m2 can numerically land a hair below zero, which
    // must surface as variance 0, not sqrt(-eps) = NaN.
    RunningStats s;
    for (int i = 0; i < 64; ++i) s.add(1e15 + 0.1);
    EXPECT_GE(s.variance(), 0.0);
    EXPECT_GE(s.sample_variance(), 0.0);
    EXPECT_FALSE(std::isnan(s.deviation()));
}

// obs::Histogram is the one histogram type: exact buckets below
// kLinearMax, 25%-wide ones above, and an exact sum throughout.

std::uint64_t count_of(const Histogram& h, std::uint64_t v) {
    return h.counts()[Histogram::bucket_for(v)];
}

TEST(Histogram, CountsAndFractions) {
    Histogram h;
    for (const std::uint64_t v : {1, 1, 2, 3, 3, 3}) h.record(v);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(count_of(h, 1), 2u);
    EXPECT_EQ(count_of(h, 3), 3u);
    EXPECT_EQ(count_of(h, 9), 0u);
    EXPECT_DOUBLE_EQ(static_cast<double>(count_of(h, 3)) /
                         static_cast<double>(h.total()),
                     0.5);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.max_bucket_value(), 3u);
    EXPECT_EQ(h.sum(), 13u);
    EXPECT_DOUBLE_EQ(h.mean(), 13.0 / 6.0);
    // Above the exact range a bucket spans several values, but the sum
    // (and so the mean) still counts each value exactly.
    for (int i = 0; i < 3; ++i) h.record(1000);
    EXPECT_EQ(h.total(), 9u);
    EXPECT_EQ(h.sum(), 3013u);
    EXPECT_DOUBLE_EQ(h.mean(), 3013.0 / 9.0);
    EXPECT_EQ(count_of(h, 1000), 3u);
    EXPECT_EQ(count_of(h, 1023), 3u);  // same bucket: [896, 1023]
}

TEST(Histogram, EmptyIsSafe) {
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.max_bucket_value(), 0u);
    EXPECT_EQ(h, Histogram{});
}

TEST(Histogram, QuantileIsNearestRankAndMonotone) {
    Histogram h;
    for (const std::uint64_t v : {1, 1, 2, 3, 5, 8, 8, 8, 13, 21}) h.record(v);
    // Nearest-rank: the ceil(q*10)-th smallest value (1-based).
    EXPECT_EQ(h.quantile(0.0), 1u);   // the minimum
    EXPECT_EQ(h.quantile(0.10), 1u);
    EXPECT_EQ(h.quantile(0.25), 2u);  // rank 3
    EXPECT_EQ(h.quantile(0.50), 5u);  // rank 5
    EXPECT_EQ(h.quantile(0.90), 13u);
    EXPECT_EQ(h.quantile(0.99), 21u);
    EXPECT_EQ(h.quantile(1.0), 21u);  // the maximum
    std::uint64_t prev = h.quantile(0.0);
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        EXPECT_GE(h.quantile(q), prev) << q;
        prev = h.quantile(q);
    }
    // Past the exact range the quantile reads its bucket's upper bound.
    Histogram wide;
    for (const std::uint64_t v : {4, 40, 40, 100}) wide.record(v);
    EXPECT_EQ(wide.quantile(0.0), 4u);
    EXPECT_EQ(wide.quantile(0.5), Histogram::bucket_upper(Histogram::bucket_for(40)));
    EXPECT_EQ(wide.quantile(0.5), 47u);  // bucket [40, 47]
    EXPECT_EQ(wide.quantile(1.0), 111u);  // bucket [96, 111]
    EXPECT_EQ(wide.sum(), 184u);
}

TEST(FormatFixed, RendersDigits) {
    EXPECT_EQ(espread::sim::format_fixed(1.456, 2), "1.46");
    EXPECT_EQ(espread::sim::format_fixed(1.0, 0), "1");
    EXPECT_EQ(espread::sim::format_fixed(-0.125, 3), "-0.125");
}

}  // namespace
