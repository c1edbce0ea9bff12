// Cross-module property sweeps tying the THEORY.md claims together:
// adjacency distance characterizes single-burst tolerance, random
// permutations respect the bounds, and the family guarantee sits inside
// the theoretical sandwich for every (n, b).
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/multiburst.hpp"
#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "sim/rng.hpp"

namespace {

using espread::calculate_permutation;
using espread::lower_bound_clf;
using espread::Permutation;
using espread::worst_case_clf;
using espread::analysis::min_adjacent_distance;

/// Uniformly random permutation of n items (Fisher–Yates driven by `rng`).
Permutation random_order(std::size_t n, espread::sim::Rng& rng) {
    std::vector<std::size_t> image(n);
    std::iota(image.begin(), image.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = rng.uniform_int(0, i - 1);
        std::swap(image[i - 1], image[j]);
    }
    return Permutation{std::move(image)};
}

// CLF 1 against every burst <= b  <=>  every playback-adjacent pair is
// more than ... precisely: min adjacent wire distance >= b means a burst
// of b cannot cover both; a burst of mad+1 can.
TEST(TheoryProperty, MinAdjacentDistanceCharacterizesClfOne) {
    espread::sim::Rng rng{31};
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 4 + rng.uniform_int(0, 28);
        const Permutation p = random_order(n, rng);
        const std::size_t mad = min_adjacent_distance(p);
        ASSERT_GE(mad, 1u);
        EXPECT_EQ(worst_case_clf(p, mad), 1u) << "n=" << n;
        if (mad < n) {
            EXPECT_GE(worst_case_clf(p, mad + 1), 2u) << "n=" << n;
        }
    }
}

// Any permutation whatsoever respects the packing bound and the trivial
// ceiling — the sandwich the optimizer moves inside.
TEST(TheoryProperty, RandomPermutationsRespectTheSandwich) {
    espread::sim::Rng rng{32};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + rng.uniform_int(0, 20);
        const Permutation p = random_order(n, rng);
        for (std::size_t b = 1; b <= n; ++b) {
            const std::size_t clf = worst_case_clf(p, b);
            EXPECT_GE(clf, lower_bound_clf(n, b));
            EXPECT_LE(clf, b);
        }
    }
}

// Unapply/apply round-trip on random permutations: the receiver always
// reconstructs exactly the sender's window.
TEST(TheoryProperty, UnapplyInvertsApplyForRandomOrders) {
    espread::sim::Rng rng{33};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + rng.uniform_int(0, 40);
        const Permutation p = random_order(n, rng);
        std::vector<int> items(n);
        for (auto& x : items) x = static_cast<int>(rng.uniform_int(0, 1000));
        EXPECT_EQ(p.unapply(p.apply(items)), items);
        EXPECT_TRUE(p.compose(p.inverse()).is_identity());
    }
}

class FamilySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The family guarantee meets the packing bound through b = n/2 (THEORY §3)
// and never exceeds what the identity suffers.
TEST_P(FamilySweep, GuaranteeMeetsPackingBoundInEasyRegime) {
    const auto [n, b] = GetParam();
    if (b > n) GTEST_SKIP();
    const auto r = calculate_permutation(n, b);
    if (static_cast<std::size_t>(2 * b) <= static_cast<std::size_t>(n)) {
        EXPECT_EQ(r.clf, 1u);
    }
    EXPECT_GE(r.clf, lower_bound_clf(n, b));
    EXPECT_LE(r.clf, std::min<std::size_t>(b, n));
}

INSTANTIATE_TEST_SUITE_P(
    WideRange, FamilySweep,
    ::testing::Combine(::testing::Values(11, 16, 23, 32, 48, 64, 120),
                       ::testing::Values(1, 2, 5, 8, 16, 24, 60, 119)));

// Large-burst regime: the family achieves the single-survivor optimum
// ceil((n-1)/2) at b = n - 1 (THEORY §3, reversed half-stride).
TEST(TheoryProperty, NearTotalLossOptimumAchieved) {
    for (const std::size_t n : {8u, 12u, 16u, 20u, 24u, 32u}) {
        const auto r = calculate_permutation(n, n - 1);
        EXPECT_EQ(r.clf, (n - 1 + 1) / 2) << "n=" << n;
    }
}

// The exact evaluator agrees with a brute-force re-implementation on
// random instances (guards against optimization bugs in worst_case_clf).
TEST(TheoryProperty, WorstCaseClfMatchesBruteForce) {
    espread::sim::Rng rng{34};
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 2 + rng.uniform_int(0, 14);
        const std::size_t b = 1 + rng.uniform_int(0, n - 1);
        const Permutation p = random_order(n, rng);
        std::size_t brute = 0;
        for (std::size_t start = 0; start + b <= n; ++start) {
            std::vector<bool> delivered(n, true);
            for (std::size_t s = start; s < start + b; ++s) delivered[p[s]] = false;
            std::size_t run = 0;
            std::size_t best = 0;
            for (const bool ok : delivered) {
                run = ok ? 0 : run + 1;
                best = std::max(best, run);
            }
            brute = std::max(brute, best);
        }
        EXPECT_EQ(worst_case_clf(p, b), brute) << "n=" << n << " b=" << b;
    }
}

}  // namespace
