#include "core/cpo.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "core/burst.hpp"
#include "core/interleaver.hpp"

namespace {

using espread::calculate_permutation;
using espread::cpo_clf;
using espread::CpoResult;
using espread::lower_bound_clf;
using espread::window_for_clf;
using espread::worst_case_clf;

TEST(Cpo, TrivialCases) {
    const CpoResult zero = calculate_permutation(10, 0);
    EXPECT_TRUE(zero.perm.is_identity());
    EXPECT_EQ(zero.clf, 0u);

    const CpoResult whole = calculate_permutation(10, 10);
    EXPECT_EQ(whole.clf, 10u);

    const CpoResult clamped = calculate_permutation(10, 99);
    EXPECT_EQ(clamped.clf, 10u);

    const CpoResult tiny = calculate_permutation(1, 1);
    EXPECT_EQ(tiny.clf, 1u);

    const CpoResult empty = calculate_permutation(0, 3);
    EXPECT_EQ(empty.perm.size(), 0u);
    EXPECT_EQ(empty.clf, 0u);
}

// Property sweep: the reported CLF is exactly the worst case of the
// returned permutation, is at least the packing bound, and never exceeds
// the identity's CLF (= b).
class CpoSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CpoSweep, ReportedClfIsExactAndBounded) {
    const auto [n, b] = GetParam();
    const CpoResult r = calculate_permutation(n, b);
    EXPECT_EQ(r.perm.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(r.clf, worst_case_clf(r.perm, b));
    EXPECT_GE(r.clf, lower_bound_clf(n, b));
    EXPECT_LE(r.clf, std::min<std::size_t>(b, n));
}

INSTANTIATE_TEST_SUITE_P(
    SmallWindows, CpoSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 12, 17, 24, 36),
                       ::testing::Values(1, 2, 3, 4, 5, 7, 9, 12, 17)));

// Theorem 1 regime: whenever b*b <= n, CLF 1 is achievable (stride b keeps
// every pair of lost frames at least b apart).
TEST(Cpo, ClfOneWheneverBSquaredAtMostN) {
    for (std::size_t n = 2; n <= 60; ++n) {
        for (std::size_t b = 1; b * b <= n; ++b) {
            EXPECT_EQ(cpo_clf(n, b), 1u) << "n=" << n << " b=" << b;
        }
    }
}

// Exhaustive over n <= 20: the guarantee sits between the packing lower
// bound and the identity's CLF (= b) at every bound.
TEST(Cpo, GuaranteeStaysSandwiched) {
    for (std::size_t n = 2; n <= 20; ++n) {
        for (std::size_t b = 1; b <= n; ++b) {
            const std::size_t c = cpo_clf(n, b);
            EXPECT_GE(c, lower_bound_clf(n, b)) << "n=" << n << " b=" << b;
            EXPECT_LE(c, b) << "n=" << n << " b=" << b;
        }
    }
}

TEST(Cpo, MonotoneInBurstBound) {
    for (std::size_t n : {8u, 17u, 24u}) {
        std::size_t prev = 0;
        for (std::size_t b = 0; b <= n; ++b) {
            const std::size_t c = cpo_clf(n, b);
            EXPECT_GE(c, prev) << "n=" << n << " b=" << b;
            prev = c;
        }
    }
}

TEST(Cpo, Table1WindowSpreadsBurstOfSeven) {
    // The paper's example: 17-frame window, burst of 7 -> CLF 1 via stride 5.
    const CpoResult r = calculate_permutation(17, 7);
    EXPECT_EQ(r.clf, 1u);
}

TEST(Cpo, NeverWorseThanIbo) {
    for (std::size_t n : {8u, 16u, 24u}) {
        const espread::Permutation ibo = espread::ibo_order(n);
        for (std::size_t b = 1; b <= n; ++b) {
            EXPECT_LE(cpo_clf(n, b), worst_case_clf(ibo, b))
                << "n=" << n << " b=" << b;
        }
    }
}

TEST(Cpo, CandidateStridesExhaustiveBelowLimit) {
    const auto cands = espread::cpo_candidate_strides(10, 3);
    ASSERT_EQ(cands.size(), 8u);  // 2..9
    EXPECT_EQ(cands.front(), 2u);
    EXPECT_EQ(cands.back(), 9u);
}

TEST(Cpo, CandidateStridesCuratedAboveLimit) {
    const auto cands = espread::cpo_candidate_strides(1000, 30, /*limit=*/256);
    EXPECT_FALSE(cands.empty());
    EXPECT_LT(cands.size(), 200u);
    for (const std::size_t g : cands) {
        EXPECT_GE(g, 2u);
        EXPECT_LE(g, 999u);
    }
}

TEST(Cpo, LargeWindowStillAchievesClfOneInEasyRegime) {
    // n = 900, b = 30: b*b == n, curated candidates must find stride 30.
    EXPECT_EQ(cpo_clf(900, 30), 1u);
}

TEST(WindowForClf, KnownValues) {
    EXPECT_EQ(window_for_clf(0, 5), 1u);
    EXPECT_EQ(window_for_clf(3, 5), 3u);   // k >= b: even total loss is fine
    EXPECT_EQ(window_for_clf(3, 0), 0u);   // impossible
    // CLF 1 against burst 3 requires at least b*b-ish window.
    const std::size_t n1 = window_for_clf(3, 1);
    EXPECT_EQ(cpo_clf(n1, 3), 1u);
    EXPECT_GT(cpo_clf(n1 - 1, 3), 1u);
}

TEST(WindowForClf, LargerToleranceNeedsNoMoreBuffer) {
    const std::size_t b = 4;
    std::size_t prev = window_for_clf(b, 1);
    for (std::size_t k = 2; k <= b; ++k) {
        const std::size_t w = window_for_clf(b, k);
        EXPECT_LE(w, prev) << "k=" << k;
        prev = w;
    }
}

}  // namespace
