#include "analysis/markov.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "engine/engine.hpp"

namespace {

using espread::analysis::clf_distribution_in_order;
using espread::analysis::expected_clf_in_order;
using espread::analysis::expected_losses_in_order;
using espread::analysis::loss_probability_at;
using espread::net::GilbertLoss;
using espread::net::GilbertParams;

TEST(Markov, DistributionIsAProbabilityMeasure) {
    for (const double pbad : {0.3, 0.6, 0.9}) {
        const auto dist = clf_distribution_in_order({0.92, pbad}, 24);
        ASSERT_EQ(dist.size(), 25u);
        double sum = 0.0;
        for (const double p : dist) {
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0 + 1e-12);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Markov, PerfectNetworkHasClfZero) {
    const auto dist = clf_distribution_in_order({1.0, 0.0}, 10);
    EXPECT_NEAR(dist[0], 1.0, 1e-12);
}

TEST(Markov, AlwaysBadAfterFirstPacket) {
    // p_good = 0, p_bad = 1: the first packet survives (initial GOOD), all
    // later packets die -> CLF is exactly n - 1.
    const auto dist = clf_distribution_in_order({0.0, 1.0}, 8);
    EXPECT_NEAR(dist[7], 1.0, 1e-12);
}

TEST(Markov, SinglePacketWindow) {
    // One packet, starting GOOD, classic emissions: never lost.
    const auto dist = clf_distribution_in_order({0.5, 0.5}, 1);
    EXPECT_NEAR(dist[0], 1.0, 1e-12);
    EXPECT_NEAR(dist[1], 0.0, 1e-12);
}

TEST(Markov, LossProbabilityConvergesToStationary) {
    const GilbertParams params{0.92, 0.6};
    EXPECT_DOUBLE_EQ(loss_probability_at(params, 0), 0.0);  // starts GOOD
    EXPECT_NEAR(loss_probability_at(params, 200),
                GilbertLoss::stationary_loss(params), 1e-9);
}

TEST(Markov, ExpectedLossesMatchSumOfMarginals) {
    const GilbertParams params{0.9, 0.5};
    double sum = 0.0;
    for (std::size_t k = 0; k < 30; ++k) sum += loss_probability_at(params, k);
    EXPECT_NEAR(expected_losses_in_order(params, 30), sum, 1e-12);
}

TEST(Markov, AgreesWithMonteCarlo) {
    // The DP and the shipped engine's in-order arm (one packet per LDU)
    // must describe the same process.  Each session runs one continuous
    // chain across its windows, so beyond a session's first window each
    // starts from (approximately) the stationary state; the DP must be
    // seeded accordingly.
    const GilbertParams params{0.92, 0.6};
    const std::size_t n = 24;
    espread::engine::EngineConfig cfg;
    cfg.sessions = 16;
    cfg.window_ldus = n;
    cfg.packets_per_ldu = 1;
    cfg.spread = false;
    cfg.data_loss = params;
    cfg.seed = 5;
    espread::engine::ShardedEngine engine(cfg);
    engine.run(2500);  // 40000 windows
    const espread::engine::EngineSummary s = engine.summary();
    const double pi_good = espread::analysis::stationary_p_good(params);
    EXPECT_NEAR(s.clf_mean, expected_clf_in_order(params, n, pi_good), 0.03);
    EXPECT_NEAR(s.alf * static_cast<double>(n),
                expected_losses_in_order(params, n, pi_good), 0.05);
}

TEST(Markov, StationaryStartLosesMoreThanFreshStart) {
    const GilbertParams params{0.92, 0.6};
    const double pi_good = espread::analysis::stationary_p_good(params);
    EXPECT_NEAR(pi_good, 0.4 / 0.48, 1e-12);
    EXPECT_GT(expected_clf_in_order(params, 24, pi_good),
              expected_clf_in_order(params, 24, 1.0));
}

TEST(Markov, GilbertElliottEmissionsSupported) {
    // Residual loss in GOOD only: runs are geometric-ish and short.
    const GilbertParams params{1.0, 0.0, 0.1, 1.0};
    const auto dist = clf_distribution_in_order(params, 12);
    EXPECT_GT(dist[0], 0.25);          // 0.9^12 ~ 0.28: often no loss at all
    EXPECT_GT(dist[1], dist[3]);       // long runs need repeated 10% events
    EXPECT_NEAR(expected_losses_in_order(params, 12), 1.2, 1e-9);
}

TEST(Markov, InvalidParametersThrow) {
    EXPECT_THROW(clf_distribution_in_order({1.5, 0.5}, 5), std::invalid_argument);
    EXPECT_THROW(clf_distribution_in_order({0.5, 0.5, -1.0, 1.0}, 5),
                 std::invalid_argument);
}

TEST(Markov, ClfGrowsWithBurstiness) {
    const std::size_t n = 24;
    const double calm = expected_clf_in_order({0.92, 0.3}, n);
    const double stormy = expected_clf_in_order({0.92, 0.8}, n);
    EXPECT_LT(calm, stormy);
}

}  // namespace
