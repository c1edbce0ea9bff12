#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace {

using espread::sim::Rng;

TEST(Rng, SameSeedSameSequence) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
    Rng r{0};
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i) vals.insert(r.next_u64());
    EXPECT_GT(vals.size(), 95u) << "degenerate state from zero seed";
}

TEST(Rng, UniformInUnitInterval) {
    Rng r{7};
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeExactly) {
    Rng r{9};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.uniform_int(10, 15);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 15u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng r{10};
    EXPECT_EQ(r.uniform_int(4, 4), 4u);
}

TEST(Rng, BernoulliExtremes) {
    Rng r{11};
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
        EXPECT_FALSE(r.bernoulli(-0.5));
        EXPECT_TRUE(r.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliFrequency) {
    Rng r{12};
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        if (r.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
    Rng r{14};
    double sum = 0.0;
    double sq = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double v = r.normal(3.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalIsExpOfNormal) {
    Rng r{15};
    for (int i = 0; i < 1000; ++i) {
        ASSERT_GT(r.lognormal(0.0, 1.0), 0.0);
    }
}

TEST(Rng, GeometricMean) {
    Rng r{16};
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) {
        sum += static_cast<double>(r.geometric(0.25));
    }
    // mean failures before success = (1-p)/p = 3
    EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, GeometricCertainSuccess) {
    Rng r{17};
    EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, SplitStreamsAreIndependent) {
    Rng parent{42};
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
    Rng p1{42};
    Rng p2{42};
    Rng a = p1.split(7);
    Rng b = p2.split(7);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

}  // namespace
