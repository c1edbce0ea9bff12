// Governor-lite: the engine's per-slot supervision state machine.
//
// One inline step function shared verbatim by the SoA pool hot path and
// the scalar reference (engine/reference.cpp), so test_engine can pin the
// governed window loop the same way it pins the ungoverned one.  The
// machine watches the Fig. 6 feedback pipeline: a window whose pending
// cell is empty when it comes due is a "miss".
//
//   Normal     -- miss_budget consecutive misses --> Degraded
//   Degraded   -- each miss decays the estimate toward the prior n/2;
//                 fallback_budget misses --> Fallback; feedback --> Recovering
//   Fallback   -- estimate pinned at the prior; feedback --> Recovering
//   Recovering -- published bound slews toward the raw Eq. 1 bound by at
//                 most max_step per window; a miss --> Degraded;
//                 recovery_windows fed windows --> Normal
//
// All arithmetic is plain doubles/integers evaluated in one fixed order
// (the decay expression matches BurstEstimator::decay_toward_prior), so
// governed runs keep the engine's byte-identical-across-shards contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/estimator.hpp"
#include "engine/config.hpp"

namespace espread::engine {

// Governor-lite states, also the index space of the telemetry plane's
// governor_windows occupancy counters; contracts::kGovernorStateNames
// names them.
inline constexpr std::uint8_t kGovNormal = 0;
inline constexpr std::uint8_t kGovDegraded = 1;
inline constexpr std::uint8_t kGovFallback = 2;
inline constexpr std::uint8_t kGovRecovering = 3;

/// Per-session supervision state (16 bytes; one per pool slot).
struct GovernorLiteState {
    std::uint8_t state = kGovNormal;
    std::uint32_t misses = 0;     ///< consecutive misses in Normal/Degraded
    std::uint32_t streak = 0;     ///< consecutive fed windows in Recovering
    std::uint32_t dwell = 0;      ///< windows run in the current state
    std::uint32_t published = 0;  ///< bound the previous window was sent with
};

/// What one governed window did (telemetry + trace fodder).
struct GovernorLiteOutcome {
    std::size_t bound = 0;        ///< bound to send this window with
    bool transitioned = false;
    std::uint8_t from = kGovNormal;   ///< exited state, when transitioned
    std::uint32_t exit_dwell = 0;     ///< windows spent in the exited state
};

/// Runs one window of supervision.  `armed` is false until the feedback
/// pipeline could have delivered (window index >= feedback_delay_windows);
/// `fed` says whether this window's pending cell held an observation.
/// Call AFTER the Eq. 1 EWMA has been applied for a fed window; the
/// function may further move `estimate` (decay / pin to prior) and
/// returns the bound to publish.  After it returns, g.state is the state
/// this window ran under and g.dwell already counts it.
inline GovernorLiteOutcome governor_lite_step(GovernorLiteState& g,
                                              const GovernorLiteConfig& cfg,
                                              bool armed, bool fed,
                                              double& estimate,
                                              std::size_t n) noexcept {
    GovernorLiteOutcome out;
    const double prior = static_cast<double>(n) / 2.0;
    const auto enter = [&g, &out](std::uint8_t next) noexcept {
        out.transitioned = true;
        out.from = g.state;
        out.exit_dwell = g.dwell;
        g.state = next;
        g.dwell = 0;
        g.misses = 0;
        g.streak = 0;
    };
    if (armed) {
        switch (g.state) {
            case kGovNormal:
                if (fed) {
                    g.misses = 0;
                } else if (++g.misses >= cfg.miss_budget) {
                    enter(kGovDegraded);
                }
                break;
            case kGovDegraded:
                if (fed) {
                    enter(kGovRecovering);
                } else {
                    estimate = prior + (estimate - prior) * cfg.outage_decay;
                    if (++g.misses >= cfg.fallback_budget) {
                        enter(kGovFallback);
                        estimate = prior;
                    }
                }
                break;
            case kGovFallback:
                if (fed) {
                    enter(kGovRecovering);
                } else {
                    estimate = prior;
                }
                break;
            case kGovRecovering:
                if (!fed) {
                    enter(kGovDegraded);
                } else if (++g.streak >= cfg.recovery_windows) {
                    enter(kGovNormal);
                }
                break;
            default:
                break;
        }
    }
    const std::size_t raw = BurstEstimator::bound_for(estimate, n);
    std::size_t bound = raw;
    if (g.state == kGovRecovering) {
        const std::size_t prev = g.published;
        if (raw > prev + cfg.max_step) {
            bound = prev + cfg.max_step;
        } else if (prev > raw && prev - raw > cfg.max_step) {
            bound = prev - cfg.max_step;
        }
    }
    g.published = static_cast<std::uint32_t>(bound);
    ++g.dwell;
    out.bound = bound;
    return out;
}

}  // namespace espread::engine
