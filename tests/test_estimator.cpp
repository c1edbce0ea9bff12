#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using espread::BurstEstimator;

TEST(Estimator, InitialEstimateIsHalfWindow) {
    const BurstEstimator e{24};
    EXPECT_DOUBLE_EQ(e.estimate(), 12.0);
    EXPECT_EQ(e.bound(), 12u);
    EXPECT_EQ(e.observations(), 0u);
}

TEST(Estimator, EquationOneWithDefaultAlpha) {
    BurstEstimator e{24};  // estimate 12
    e.update(4);
    EXPECT_DOUBLE_EQ(e.estimate(), 8.0);  // 0.5*4 + 0.5*12
    e.update(0);
    EXPECT_DOUBLE_EQ(e.estimate(), 4.0);
    e.update(6);
    EXPECT_DOUBLE_EQ(e.estimate(), 5.0);
    EXPECT_EQ(e.observations(), 3u);
}

TEST(Estimator, BoundIsCeilingOfEstimate) {
    BurstEstimator e{10};  // estimate 5
    e.update(2);           // 3.5
    EXPECT_EQ(e.bound(), 4u);
}

TEST(Estimator, BoundNeverBelowOne) {
    BurstEstimator e{10, 1.0};
    e.update(0);
    EXPECT_DOUBLE_EQ(e.estimate(), 0.0);
    EXPECT_EQ(e.bound(), 1u);
}

TEST(Estimator, BoundNeverAboveWindow) {
    BurstEstimator e{4, 1.0};
    e.update(100);  // clamped to window
    EXPECT_DOUBLE_EQ(e.estimate(), 4.0);
    EXPECT_EQ(e.bound(), 4u);
}

TEST(Estimator, AlphaZeroFreezesEstimate) {
    BurstEstimator e{20, 0.0};
    e.update(19);
    e.update(1);
    EXPECT_DOUBLE_EQ(e.estimate(), 10.0);
}

// Property: alpha == 0 is EXACTLY frozen — any observation sequence leaves
// the estimate bit-identical to the prior (not merely close), while the
// observation count still advances.
TEST(Estimator, AlphaZeroIsExactlyFrozenForAnySequence) {
    BurstEstimator e{24, 0.0};
    for (std::size_t i = 0; i < 200; ++i) {
        e.update((i * 7 + 3) % 40);  // sweeps 0..39, incl. beyond-window values
        ASSERT_EQ(e.estimate(), 12.0) << "observation " << i;
        ASSERT_EQ(e.bound(), 12u);
    }
    EXPECT_EQ(e.observations(), 200u);
}

TEST(Estimator, AlphaOneTracksLatestObservation) {
    BurstEstimator e{20, 1.0};
    e.update(7);
    EXPECT_DOUBLE_EQ(e.estimate(), 7.0);
    e.update(3);
    EXPECT_DOUBLE_EQ(e.estimate(), 3.0);
}

// Property: alpha == 1 is EXACTLY memoryless — after every update the
// estimate equals the latest observation clamped to the window, with no
// residue of the past (0.0 * history is exactly 0 in IEEE arithmetic).
TEST(Estimator, AlphaOneIsExactlyMemorylessForAnySequence) {
    BurstEstimator e{24, 1.0};
    for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t obs = (i * 13 + 5) % 48;
        e.update(obs);
        ASSERT_EQ(e.estimate(), static_cast<double>(std::min<std::size_t>(obs, 24)))
            << "observation " << i;
    }
}

TEST(Estimator, BoundForClampsTotally) {
    // Any estimate <= 0 — including large negatives and -0.0 — maps to 1.
    EXPECT_EQ(BurstEstimator::bound_for(0.0, 10), 1u);
    EXPECT_EQ(BurstEstimator::bound_for(-0.0, 10), 1u);
    EXPECT_EQ(BurstEstimator::bound_for(-5.0, 10), 1u);
    EXPECT_EQ(BurstEstimator::bound_for(-1e18, 10), 1u);
    // Any estimate > window maps to window.
    EXPECT_EQ(BurstEstimator::bound_for(10.0 + 1e-6, 10), 10u);
    EXPECT_EQ(BurstEstimator::bound_for(1e18, 10), 10u);
    // Interior estimates take the ceiling.
    EXPECT_EQ(BurstEstimator::bound_for(3.2, 10), 4u);
    EXPECT_EQ(BurstEstimator::bound_for(3.0, 10), 3u);
    EXPECT_EQ(BurstEstimator::bound_for(10.0, 10), 10u);
}

// ---- Governor support: guarded_update / reset_to_prior / decay ------------

TEST(Estimator, GuardedUpdateBoundsSingleStep) {
    // Worst case for the guard: alpha = 1 jumps straight to the observation.
    BurstEstimator e{16, 1.0};  // bound 8
    const std::size_t applied = e.guarded_update(16, 3);
    EXPECT_EQ(applied, 11u);  // clamped into [5, 11]
    EXPECT_EQ(e.bound(), 11u);
    EXPECT_EQ(e.guarded_update(0, 3), 8u);  // clamped into [8, 14]
    EXPECT_EQ(e.bound(), 8u);
    // An observation within reach passes through the guard unchanged.
    EXPECT_EQ(e.guarded_update(6, 3), 6u);
    EXPECT_EQ(e.bound(), 6u);
}

TEST(Estimator, GuardedUpdateMaxStepZeroFreezesBound) {
    BurstEstimator e{16, 1.0};
    for (const std::size_t obs : {0u, 16u, 1u, 12u}) {
        EXPECT_EQ(e.guarded_update(obs, 0), 8u);
        EXPECT_EQ(e.bound(), 8u);
    }
}

TEST(Estimator, GuardedUpdateFiresObserverAndCounts) {
    BurstEstimator e{16, 0.5};
    std::size_t seen = 0;
    e.set_observer([&](std::size_t observed, double, double) { seen = observed; });
    e.guarded_update(16, 2);
    EXPECT_EQ(seen, 10u);  // the guarded value, not the raw one
    EXPECT_EQ(e.observations(), 1u);
}

TEST(Estimator, ResetToPriorRestoresHalfWindow) {
    BurstEstimator e{24, 0.5};
    e.update(2);
    e.update(2);
    ASSERT_NE(e.estimate(), 12.0);
    e.reset_to_prior();
    EXPECT_DOUBLE_EQ(e.estimate(), 12.0);
    EXPECT_EQ(e.observations(), 2u) << "reset must not forget the count";
}

TEST(Estimator, DecayTowardPriorIsExponential) {
    BurstEstimator e{24, 1.0};
    e.update(4);  // estimate 4, prior 12, distance -8
    e.decay_toward_prior();  // keeps kOutageDecay = 1/2 of the distance
    EXPECT_DOUBLE_EQ(e.estimate(), 8.0);
    e.decay_toward_prior();
    EXPECT_DOUBLE_EQ(e.estimate(), 10.0);
    e.update(20);  // above the prior: decays down toward it
    e.decay_toward_prior();
    EXPECT_DOUBLE_EQ(e.estimate(), 16.0);
    EXPECT_EQ(e.estimate(), BurstEstimator::outage_decay_step(20.0, 12.0));
}

TEST(Estimator, ConvergesToSteadyObservation) {
    BurstEstimator e{100};
    for (int i = 0; i < 40; ++i) e.update(6);
    EXPECT_NEAR(e.estimate(), 6.0, 1e-6);
    EXPECT_EQ(e.bound(), 6u);
}

TEST(Estimator, InvalidArgumentsThrow) {
    EXPECT_THROW(BurstEstimator(0), std::invalid_argument);
    EXPECT_THROW(BurstEstimator(5, -0.1), std::invalid_argument);
    EXPECT_THROW(BurstEstimator(5, 1.1), std::invalid_argument);
}

}  // namespace
