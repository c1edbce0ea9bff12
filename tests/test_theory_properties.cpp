// Cross-module property sweeps tying the THEORY.md claims together:
// adjacency distance characterizes single-burst tolerance, random
// permutations respect the bounds, the family guarantee sits inside the
// theoretical sandwich for every (n, b), and orders that are optimal for
// one burst can be fragile against two (THEORY.md, "Beyond Theorem 1").
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "core/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using espread::calculate_permutation;
using espread::cyclic_stride_order;
using espread::lower_bound_clf;
using espread::Permutation;
using espread::residue_class_order;
using espread::worst_case_clf;

/// Adjacency exposure at wire distance d: the number of playback-adjacent
/// pairs (x, x+1) whose transmission slots are exactly d apart.  A single
/// burst of length b can join x and x+1 only if their slots are < b
/// apart; two bursts can exploit any distance.  e[d] for d < n.
std::vector<std::size_t> adjacency_exposure(const Permutation& perm) {
    const std::size_t n = perm.size();
    std::vector<std::size_t> exposure(n, 0);
    if (n < 2) return exposure;
    const Permutation inv = perm.inverse();
    for (std::size_t x = 0; x + 1 < n; ++x) {
        const std::size_t a = inv[x];
        const std::size_t b = inv[x + 1];
        ++exposure[a > b ? a - b : b - a];
    }
    return exposure;
}

/// Smallest wire distance between any playback-adjacent pair: the
/// largest single burst the order tolerates with CLF 1 (n when n < 2).
std::size_t min_adjacent_distance(const Permutation& perm) {
    const std::vector<std::size_t> exposure = adjacency_exposure(perm);
    for (std::size_t d = 0; d < exposure.size(); ++d) {
        if (exposure[d] > 0) return d;
    }
    return perm.size();
}

/// Exact worst-case playback CLF when up to two disjoint transmission
/// runs, each of length <= b, are lost in the window (a single burst,
/// the second empty, included).
std::size_t worst_case_clf_two_bursts(const Permutation& perm, std::size_t b) {
    const std::size_t n = perm.size();
    if (n == 0 || b == 0) return 0;
    const std::size_t len = std::min(b, n);
    std::size_t worst = worst_case_clf(perm, b);
    // Bursts of exactly `len` dominate shorter ones at the same positions.
    for (std::size_t s1 = 0; s1 + len <= n; ++s1) {
        const espread::LossMask base = espread::burst_loss_mask(perm, s1, len);
        for (std::size_t s2 = s1 + len; s2 + len <= n; ++s2) {
            espread::LossMask mask = base;
            for (std::size_t slot = s2; slot < s2 + len; ++slot) {
                mask[perm[slot]] = false;
            }
            worst = std::max(worst, espread::consecutive_loss(mask));
        }
    }
    return worst;
}

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

TEST(TwoBursts, DegenerateInputs) {
    EXPECT_EQ(worst_case_clf_two_bursts(Permutation::identity(8), 0), 0u);
    EXPECT_EQ(worst_case_clf_two_bursts(Permutation{std::vector<std::size_t>{}}, 3), 0u);
}

TEST(TwoBursts, AtLeastSingleBurstWorstCase) {
    for (std::size_t stride : {2u, 3u, 5u}) {
        const Permutation p = residue_class_order(17, stride);
        for (std::size_t b = 1; b <= 8; ++b) {
            EXPECT_GE(worst_case_clf_two_bursts(p, b), worst_case_clf(p, b))
                << "stride=" << stride << " b=" << b;
        }
    }
}

TEST(TwoBursts, IdentityStacksBothBursts) {
    // Two bursts disjoint in transmission abut in the identity's playback:
    // slots [0, b) and [b, 2b) merge into one 2b run.
    const Permutation id = Permutation::identity(12);
    EXPECT_EQ(worst_case_clf_two_bursts(id, 3), 6u);
    EXPECT_EQ(worst_case_clf_two_bursts(id, 6), 12u);
}

TEST(TwoBursts, ExposesFragilityOfStrideTwo) {
    // residue(16, 2) guarantees CLF 1 against one burst <= 8, but two
    // bursts (one per residue class) create adjacent playback losses.
    const Permutation p = residue_class_order(16, 2);
    EXPECT_EQ(worst_case_clf(p, 4), 1u);
    EXPECT_GE(worst_case_clf_two_bursts(p, 4), 2u);
}

TEST(TwoBursts, WholeWindowCap) {
    const Permutation p = residue_class_order(10, 3);
    EXPECT_EQ(worst_case_clf_two_bursts(p, 5), 10u);  // 2x5 = everything
}

TEST(AdjacencyExposure, CountsPairsPerWireDistance) {
    // identity: all n-1 adjacent pairs at distance 1.
    const auto e = adjacency_exposure(Permutation::identity(6));
    EXPECT_EQ(e[1], 5u);
    EXPECT_EQ(e[2], 0u);
    // residue(6, 2) sends 0,2,4,1,3,5: pair (x, x+1) sits 3 slots apart
    // for even x and 2 apart for odd x.
    const auto e2 = adjacency_exposure(residue_class_order(6, 2));
    EXPECT_EQ(e2[2], 2u);
    EXPECT_EQ(e2[3], 3u);
    EXPECT_EQ(e2[1], 0u);
}

TEST(AdjacencyExposure, SumsToNMinusOne) {
    for (std::size_t stride : {2u, 3u, 4u}) {
        const auto e = adjacency_exposure(residue_class_order(13, stride));
        std::size_t total = 0;
        for (const auto c : e) total += c;
        EXPECT_EQ(total, 12u);
    }
}

TEST(MinAdjacentDistance, MatchesSingleBurstTolerance) {
    // An order tolerates every single burst of length d with CLF 1 iff
    // min_adjacent_distance >= d.
    for (std::size_t stride : {3u, 5u, 7u}) {
        const Permutation p = cyclic_stride_order(17, stride);
        const std::size_t d = min_adjacent_distance(p);
        EXPECT_EQ(worst_case_clf(p, d), 1u) << "stride " << stride;
        EXPECT_GE(worst_case_clf(p, d + 1), 2u) << "stride " << stride;
    }
}

TEST(MinAdjacentDistance, TrivialSizes) {
    EXPECT_EQ(min_adjacent_distance(Permutation::identity(1)), 1u);
    EXPECT_EQ(min_adjacent_distance(Permutation::identity(2)), 1u);
}

}  // namespace
