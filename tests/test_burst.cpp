#include "core/burst.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/interleaver.hpp"
#include "core/permutation.hpp"

namespace {

using espread::burst_loss_mask;
using espread::cyclic_stride_order;
using espread::lower_bound_clf;
using espread::Permutation;
using espread::worst_case_clf;

TEST(Burst, LossMaskMarksPermutedTargets) {
    const Permutation p({2, 0, 1});
    const auto mask = burst_loss_mask(p, 0, 2);  // slots 0,1 carry 2,0
    EXPECT_EQ(mask, (espread::LossMask{false, true, false}));
}

TEST(Burst, BurstIsClippedToWindow) {
    const Permutation p = Permutation::identity(4);
    const auto mask = burst_loss_mask(p, 3, 10);
    EXPECT_EQ(mask, (espread::LossMask{true, true, true, false}));
    const auto past = burst_loss_mask(p, 10, 3);
    EXPECT_EQ(past, (espread::LossMask{true, true, true, true}));
}

TEST(Burst, ZeroLengthBurstLosesNothing) {
    const Permutation p = Permutation::identity(4);
    EXPECT_EQ(espread::consecutive_loss(burst_loss_mask(p, 1, 0)), 0u);
    EXPECT_EQ(worst_case_clf(p, 0), 0u);
}

// Paper Table 1: 17 in-order frames, one burst of 7 -> CLF 7; the stride-5
// cyclic permutation spreads the same burst so no two lost frames are
// adjacent in playback order.
TEST(Burst, Table1InOrderVersusPermuted) {
    const Permutation in_order = Permutation::identity(17);
    EXPECT_EQ(worst_case_clf(in_order, 7), 7u);

    const Permutation permuted = cyclic_stride_order(17, 5, 0);
    // Adjacent playback frames are 7 transmission slots apart (5*7 = 35 = 2*17+1),
    // so any burst of <= 7 yields CLF 1.
    EXPECT_EQ(worst_case_clf(permuted, 7), 1u);
    EXPECT_EQ(worst_case_clf(permuted, 6), 1u);
    // One slot longer and adjacent frames can both be lost.
    EXPECT_GE(worst_case_clf(permuted, 8), 2u);
}

TEST(Burst, WorstCaseIsMonotoneInBurstLength) {
    const Permutation p = cyclic_stride_order(17, 5, 0);
    std::size_t prev = 0;
    for (std::size_t b = 0; b <= 17; ++b) {
        const std::size_t w = worst_case_clf(p, b);
        EXPECT_GE(w, prev) << "b=" << b;
        prev = w;
    }
    EXPECT_EQ(prev, 17u);  // b == n loses the whole window
}

TEST(Burst, IdentityWorstCaseEqualsBurstLength) {
    for (std::size_t n : {1u, 5u, 12u}) {
        const Permutation p = Permutation::identity(n);
        for (std::size_t b = 0; b <= n; ++b) {
            EXPECT_EQ(worst_case_clf(p, b), b) << "n=" << n << " b=" << b;
        }
    }
}

TEST(Burst, EmptyWindow) {
    const Permutation p{std::vector<std::size_t>{}};
    EXPECT_EQ(worst_case_clf(p, 3), 0u);
}

TEST(Burst, LowerBoundKnownValues) {
    EXPECT_EQ(lower_bound_clf(4, 3), 2u);   // any 3 of 4 slots has a pair
    EXPECT_EQ(lower_bound_clf(5, 4), 2u);   // packing bound (true optimum is 3)
    EXPECT_EQ(lower_bound_clf(17, 7), 1u);
    EXPECT_EQ(lower_bound_clf(10, 10), 10u);
    EXPECT_EQ(lower_bound_clf(10, 12), 10u);
    EXPECT_EQ(lower_bound_clf(10, 0), 0u);
    EXPECT_EQ(lower_bound_clf(0, 3), 0u);
}

TEST(Burst, LowerBoundIsOneUpToHalfWindow) {
    for (std::size_t n = 1; n <= 40; ++n) {
        for (std::size_t b = 1; b <= (n + 1) / 2; ++b) {
            EXPECT_EQ(lower_bound_clf(n, b), 1u) << "n=" << n << " b=" << b;
        }
        if (n >= 2) {
            EXPECT_GE(lower_bound_clf(n, (n + 1) / 2 + 1), 2u) << "n=" << n;
        }
    }
}

// The packing bound is valid: no permutation can beat it (checked by brute
// force over all permutations for tiny n).
TEST(Burst, LowerBoundIsSoundForTinyWindows) {
    for (std::size_t n = 1; n <= 6; ++n) {
        for (std::size_t b = 1; b <= n; ++b) {
            std::vector<std::size_t> image(n);
            for (std::size_t i = 0; i < n; ++i) image[i] = i;
            std::size_t best = n;
            do {
                best = std::min(best, worst_case_clf(Permutation{image}, b));
            } while (std::next_permutation(image.begin(), image.end()));
            EXPECT_GE(best, lower_bound_clf(n, b)) << "n=" << n << " b=" << b;
        }
    }
}

}  // namespace
