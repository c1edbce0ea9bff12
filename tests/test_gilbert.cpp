#include "net/gilbert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/stats.hpp"

namespace {

using espread::net::GilbertLoss;
using espread::net::GilbertModel;
using espread::net::GilbertParams;
using espread::net::GilbertState;
using espread::sim::Rng;

// Chains are stored per engine slot; the shared model keeps each one to a
// pointer, the generator and the sojourn counter.
static_assert(sizeof(GilbertLoss) <= 56);

TEST(Gilbert, StartsGoodSoFirstPacketSurvives) {
    GilbertLoss g{GilbertParams{1.0, 1.0}, Rng{1}};
    EXPECT_FALSE(g.drop_next());
    EXPECT_EQ(g.state(), GilbertLoss::State::kGood);
}

TEST(Gilbert, AlwaysBadOnceEntered) {
    // p_good = 0: leaves GOOD immediately; p_bad = 1: never recovers.
    GilbertLoss g{GilbertParams{0.0, 1.0}, Rng{2}};
    EXPECT_FALSE(g.drop_next());  // first packet sees initial GOOD state
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(g.drop_next());
}

TEST(Gilbert, PerfectNetworkNeverDrops) {
    GilbertLoss g{GilbertParams{1.0, 0.0}, Rng{3}};
    for (int i = 0; i < 1000; ++i) EXPECT_FALSE(g.drop_next());
}

TEST(Gilbert, StationaryLossFormula) {
    EXPECT_NEAR(GilbertLoss::stationary_loss({0.92, 0.6}), 0.08 / 0.48, 1e-12);
    EXPECT_NEAR(GilbertLoss::stationary_loss({0.92, 0.7}), 0.08 / 0.38, 1e-12);
    EXPECT_DOUBLE_EQ(GilbertLoss::stationary_loss({1.0, 1.0}), 0.0);
}

TEST(Gilbert, MeanBurstLengthFormula) {
    EXPECT_DOUBLE_EQ(GilbertLoss::mean_burst_length({0.92, 0.6}), 2.5);
    EXPECT_NEAR(GilbertLoss::mean_burst_length({0.92, 0.7}), 10.0 / 3.0, 1e-12);
}

TEST(Gilbert, EmpiricalLossMatchesStationary) {
    const GilbertParams params{0.92, 0.6};
    GilbertLoss g{params, Rng{42}};
    constexpr int kN = 200000;
    int lost = 0;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    EXPECT_NEAR(static_cast<double>(lost) / kN,
                GilbertLoss::stationary_loss(params), 0.01);
}

TEST(Gilbert, EmpiricalBurstLengthMatchesGeometric) {
    const GilbertParams params{0.92, 0.7};
    GilbertLoss g{params, Rng{43}};
    espread::sim::RunningStats bursts;
    int current = 0;
    for (int i = 0; i < 300000; ++i) {
        if (g.drop_next()) {
            ++current;
        } else if (current > 0) {
            bursts.add(current);
            current = 0;
        }
    }
    EXPECT_NEAR(bursts.mean(), GilbertLoss::mean_burst_length(params), 0.1);
}

TEST(Gilbert, LossesAreBurstyNotIndependent) {
    // With the paper's parameters, P(loss | previous loss) = p_bad = 0.6 is
    // far above the marginal loss rate (~0.17).
    GilbertLoss g{GilbertParams{0.92, 0.6}, Rng{44}};
    int after_loss = 0;
    int after_loss_lost = 0;
    bool prev = false;
    for (int i = 0; i < 200000; ++i) {
        const bool lost = g.drop_next();
        if (prev) {
            ++after_loss;
            if (lost) ++after_loss_lost;
        }
        prev = lost;
    }
    const double conditional =
        static_cast<double>(after_loss_lost) / static_cast<double>(after_loss);
    EXPECT_NEAR(conditional, 0.6, 0.02);
}

TEST(Gilbert, DeterministicPerSeed) {
    GilbertLoss a{GilbertParams{0.9, 0.5}, Rng{7}};
    GilbertLoss b{GilbertParams{0.9, 0.5}, Rng{7}};
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.drop_next(), b.drop_next());
}

TEST(Gilbert, RejectsInvalidProbabilities) {
    EXPECT_THROW(GilbertLoss(GilbertParams{-0.1, 0.5}, Rng{1}), std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 1.5}, Rng{1}), std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 0.5, -0.1, 1.0}, Rng{1}),
                 std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 0.5, 0.0, 1.1}, Rng{1}),
                 std::invalid_argument);
}

// ---- Gilbert–Elliott generalization (per-state drop probabilities) ----

TEST(GilbertElliott, ClassicDefaultsUnchangedByExtension) {
    // Same seed, classic params: the extended model must produce the exact
    // same stream (no extra RNG draws for degenerate emissions).
    GilbertLoss classic{GilbertParams{0.9, 0.5}, Rng{21}};
    GilbertLoss spelled{GilbertParams{0.9, 0.5, 0.0, 1.0}, Rng{21}};
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(classic.drop_next(), spelled.drop_next());
}

TEST(GilbertElliott, GoodStateResidualLoss) {
    // Never leaves GOOD; drops at the GOOD-state residual rate.
    const GilbertParams params{1.0, 0.0, 0.05, 1.0};
    GilbertLoss g{params, Rng{22}};
    int lost = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    EXPECT_NEAR(static_cast<double>(lost) / kN, 0.05, 0.005);
    EXPECT_DOUBLE_EQ(GilbertLoss::stationary_loss(params), 0.05);
}

TEST(GilbertElliott, PartialBadStateDelivery) {
    // BAD drops only 80% of packets: the burst structure softens.
    const GilbertParams params{0.92, 0.6, 0.0, 0.8};
    GilbertLoss g{params, Rng{23}};
    constexpr int kN = 200000;
    int lost = 0;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    const double expected = GilbertLoss::stationary_loss(params);
    EXPECT_NEAR(expected, (0.08 / 0.48) * 0.8, 1e-12);
    EXPECT_NEAR(static_cast<double>(lost) / kN, expected, 0.01);
}

TEST(GilbertElliott, StationaryLossMixesBothStates) {
    const GilbertParams params{0.9, 0.5, 0.01, 0.9};
    const double pi_bad = 0.1 / 0.6;
    EXPECT_NEAR(GilbertLoss::stationary_loss(params),
                pi_bad * 0.9 + (1.0 - pi_bad) * 0.01, 1e-12);
}

// Equivalence contract of the batched sampler: expanding next_run() spans
// reproduces the drop_next() packet stream of an identically seeded chain,
// for both classic (degenerate) and Gilbert-Elliott emissions and across
// arbitrary max_packets caps.
TEST(GilbertNextRun, ExpandsToDropNextStream) {
    const GilbertParams cases[] = {
        {0.92, 0.6, 0.0, 1.0},   // classic: whole-sojourn runs
        {0.9, 0.5, 0.01, 0.9},   // Gilbert-Elliott: one-packet runs
        {0.92, 0.7, 0.0, 0.0},   // never loses
    };
    for (const GilbertParams& params : cases) {
        GilbertLoss scalar{params, Rng{99}};
        GilbertLoss batched{params, Rng{99}};
        Rng caps{7};
        constexpr std::size_t kPackets = 5000;
        std::vector<bool> expected;
        expected.reserve(kPackets);
        for (std::size_t i = 0; i < kPackets; ++i) {
            expected.push_back(scalar.drop_next());
        }
        std::vector<bool> got;
        got.reserve(kPackets);
        while (got.size() < kPackets) {
            const std::uint64_t cap =
                caps.uniform_int(1, kPackets - got.size());
            const GilbertLoss::Run run = batched.next_run(cap);
            ASSERT_GE(run.length, 1u);
            ASSERT_LE(run.length, cap);
            for (std::uint64_t i = 0; i < run.length; ++i) {
                got.push_back(run.lost);
            }
        }
        EXPECT_EQ(expected, got) << "p_bad=" << params.p_bad
                                 << " loss_bad=" << params.loss_bad;
    }
}

// ---- Threshold-table sojourns (GilbertModel) ----

constexpr std::uint64_t kSpan = GilbertModel::kDrawSpan;

/// The inversion formula evaluated directly, as every sojourn was sampled
/// before the table: 1 + floor(log1p(-u) / log(stay)), u = m 2^-53.
std::uint64_t formula_dwell(double stay, std::uint64_t m) {
    const double u = static_cast<double>(m) * 0x1.0p-53;
    const double extra = std::floor(std::log1p(-u) / std::log(stay));
    if (!(extra < 9.0e18)) return std::numeric_limits<std::uint64_t>::max();
    return 1 + static_cast<std::uint64_t>(extra);
}

/// The pre-table chain, spelled out: formula sojourns, a Bernoulli draw
/// per packet for a non-degenerate emission.
class FormulaChain {
public:
    FormulaChain(GilbertParams p, Rng rng) : p_(p), rng_(rng) {}

    bool drop_next() {
        if (remaining_ == 0) {
            const double stay = bad_ ? p_.p_bad : p_.p_good;
            if (stay <= 0.0) {
                remaining_ = 1;
            } else if (stay >= 1.0) {
                remaining_ = std::numeric_limits<std::uint64_t>::max();
            } else {
                remaining_ = formula_dwell(stay, rng_.next_u64() >> 11);
            }
        }
        const double h = bad_ ? p_.loss_bad : p_.loss_good;
        const bool lost = h <= 0.0 ? false : h >= 1.0 ? true : rng_.bernoulli(h);
        if (--remaining_ == 0) bad_ = !bad_;
        return lost;
    }

private:
    GilbertParams p_;
    Rng rng_;
    std::uint64_t remaining_ = 0;
    bool bad_ = false;
};

constexpr double kStays[] = {0.01, 0.1, 0.3, 0.5, 0.6,
                             0.7,  0.85, 0.92, 0.99, 0.999};

TEST(GilbertModel, ThresholdsAreExactBoundariesOfTheFormula) {
    for (const double stay : kStays) {
        const GilbertModel model{GilbertParams{stay, stay}};
        const auto& t = model.threshold(GilbertState::kGood);
        for (std::size_t k = 1; k <= GilbertModel::kTableSize; ++k) {
            const std::uint64_t tk = t[k - 1];
            if (k > 1) {
                ASSERT_LE(t[k - 2], tk) << "stay " << stay;
            }
            if (tk < kSpan) {
                EXPECT_GT(formula_dwell(stay, tk), k) << "stay " << stay;
            }
            if (tk > 0) {
                EXPECT_LE(formula_dwell(stay, tk - 1), k) << "stay " << stay;
            }
        }
    }
}

TEST(GilbertModel, TableMatchesFormulaAroundEveryThreshold) {
    constexpr std::uint64_t kReach = 4096;
    for (const double stay : kStays) {
        const GilbertModel model{GilbertParams{stay, stay}};
        const auto& t = model.threshold(GilbertState::kGood);
        std::uint64_t checked = 0;
        std::uint64_t mismatches = 0;
        for (const std::uint64_t tk : t) {
            const std::uint64_t lo = tk > kReach ? tk - kReach : 0;
            const std::uint64_t hi = tk + kReach < kSpan ? tk + kReach : kSpan - 1;
            for (std::uint64_t m = lo; m <= hi; ++m) {
                ++checked;
                if (model.dwell(GilbertState::kGood, m) != formula_dwell(stay, m)) {
                    ++mismatches;
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "stay " << stay << ", " << checked
                                  << " draws checked";
    }
}

// The bucket table only picks where the walk over the thresholds starts:
// start[j] counts the thresholds at or below bucket j's lower edge, so it
// is monotone and never above the count of any draw in the bucket.  The
// draws that cross a bucket edge, and those in the crowded top bucket,
// must still give the formula's dwell.
TEST(GilbertModel, BucketStartsAreExactAndDwellMatchesAcrossEdges) {
    constexpr std::uint64_t kReach = 64;
    constexpr unsigned kShift = GilbertModel::kBucketShift;
    constexpr std::size_t kTop = GilbertModel::kBuckets - 1;
    for (const double stay : kStays) {
        SCOPED_TRACE(stay);
        const GilbertModel model{GilbertParams{stay, stay}};
        const auto& t = model.threshold(GilbertState::kGood);
        const auto& start = model.bucket_start(GilbertState::kGood);
        const auto count_le = [&t](std::uint64_t m) {
            return static_cast<std::size_t>(
                std::upper_bound(t.begin(), t.end(), m) - t.begin());
        };
        std::uint64_t mismatches = 0;
        const auto check = [&](std::uint64_t m) {
            if (model.dwell(GilbertState::kGood, m) != formula_dwell(stay, m)) {
                ++mismatches;
            }
        };
        for (std::size_t j = 0; j < GilbertModel::kBuckets; ++j) {
            const std::uint64_t edge = std::uint64_t{j} << kShift;
            ASSERT_EQ(start[j], count_le(edge)) << "bucket " << j;
            if (j > 0) {
                ASSERT_LE(start[j - 1], start[j]) << "bucket " << j;
            }
            const std::uint64_t lo = edge > kReach ? edge - kReach : 0;
            for (std::uint64_t m = lo; m <= edge + kReach; ++m) check(m);
        }
        std::size_t in_top = 0;
        for (const std::uint64_t tk : t) {
            if (tk >= kSpan || (tk >> kShift) != kTop) continue;
            ++in_top;
            const std::uint64_t hi = tk + kReach < kSpan ? tk + kReach : kSpan - 1;
            for (std::uint64_t m = tk - kReach; m <= hi; ++m) check(m);
        }
        // The last draw of the span lands in the top bucket too.
        check(kSpan - 1);
        EXPECT_EQ(mismatches, 0u) << in_top << " thresholds in the top bucket";
    }
}

TEST(GilbertModel, TableMatchesFormulaOnRandomDraws) {
    constexpr std::size_t kDrawsPerStay = 300000;  // 3M in all
    Rng rng{2024};
    for (const double stay : kStays) {
        const GilbertModel model{GilbertParams{0.5, stay}};
        std::uint64_t mismatches = 0;
        for (std::size_t i = 0; i < kDrawsPerStay; ++i) {
            const std::uint64_t m = rng.next_u64() >> 11;
            if (model.dwell(GilbertState::kBad, m) != formula_dwell(stay, m)) {
                ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "stay " << stay;
    }
}

TEST(GilbertModel, DegenerateStaysDrawNothing) {
    const GilbertModel model{GilbertParams{0.0, 1.0}};
    Rng rng{5};
    const Rng before = rng;
    EXPECT_EQ(model.sample_dwell(GilbertState::kGood, rng), 1u);
    EXPECT_EQ(model.sample_dwell(GilbertState::kBad, rng),
              std::numeric_limits<std::uint64_t>::max());
    Rng untouched = before;
    EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(GilbertModel, InternSharesOneModelPerParameterSet) {
    const GilbertModel& a = GilbertModel::intern({0.92, 0.6});
    const GilbertModel& b = GilbertModel::intern({0.92, 0.6, 0.0, 1.0});
    const GilbertModel& c = GilbertModel::intern({0.92, 0.7});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(c.params().p_bad, 0.7);
    EXPECT_THROW(GilbertModel::intern({0.5, std::nan("")}), std::invalid_argument);
}

// The table-backed chain reproduces the formula chain packet for packet:
// classic, Gilbert-Elliott (per-packet Bernoulli draws between sojourn
// draws), long sojourns past the table, and degenerate stays.
TEST(GilbertModel, ChainStreamEqualsFormulaChain) {
    const GilbertParams cases[] = {
        {0.92, 0.6, 0.0, 1.0}, {0.92, 0.7, 0.0, 1.0}, {0.9, 0.5, 0.01, 0.9},
        {0.999, 0.3, 0.2, 0.7}, {0.0, 0.85, 0.0, 1.0}, {1.0, 0.5, 0.3, 1.0},
        {0.99, 1.0, 0.0, 0.5},
    };
    for (const GilbertParams& params : cases) {
        GilbertLoss chain{params, Rng{77}};
        FormulaChain reference{params, Rng{77}};
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(chain.drop_next(), reference.drop_next())
                << "packet " << i << " p_good=" << params.p_good
                << " p_bad=" << params.p_bad;
        }
    }
}

TEST(GilbertLoss, ReseedMatchesFreshChain) {
    const GilbertParams params{0.92, 0.6};
    GilbertLoss used{params, Rng{1}};
    for (int i = 0; i < 37; ++i) used.drop_next();
    used.reseed(Rng{9});
    GilbertLoss fresh{params, Rng{9}};
    EXPECT_EQ(used.state(), GilbertLoss::State::kGood);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(used.drop_next(), fresh.drop_next());
}

}  // namespace
