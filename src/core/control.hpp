// The steps and constants of the adaptive loop (paper §4.2, Fig. 6) that
// proto::Session and the engine's SoA pool (with its scalar reference)
// share verbatim.
//
// The Eq. 1 step, the no-feedback prior and the outage decay live on
// BurstEstimator (core/estimator.hpp).  This header holds the rest: the
// Recovering slew of both governors, the NACK credit bank of both repair
// planes, and the four constants those loops have in common.  The two
// governors' transition functions and miss budgets are different
// policies and stay with their owners (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <cstddef>

namespace espread::control {

/// Largest move of the published bound one Recovering window may make;
/// also the default outlier guard of proto::GovernorConfig::max_step.
inline constexpr std::size_t kMaxStep = 4;

/// Consecutive fed windows that take a governor from Recovering back to
/// Normal (the protocol governor's re-arm streak before any backoff).
inline constexpr std::size_t kRecoveryWindows = 4;

/// Consecutive windows without feedback before a repair plane declares
/// the path dead and reverts to the fixed proactive repair schedule.
inline constexpr std::size_t kWatchdogWindows = 2;

/// Cap on banked repair credits (in repair packets); credits accruing
/// beyond it expire, bounding the burst one NACK can release.
inline constexpr std::size_t kCreditCap = 8;

/// One Recovering window of slew: the published bound moves from
/// `published` toward `raw` by at most `max_step`.  `raw` >= 1, which
/// BurstEstimator::bound_for guarantees, keeps the result >= 1.
constexpr std::size_t slew_step(std::size_t published, std::size_t raw,
                                std::size_t max_step) noexcept {
    if (raw > published + max_step) return published + max_step;
    if (published > raw && published - raw > max_step) {
        return published - max_step;
    }
    return raw;
}

/// One credit-bank step: `accrual` new repair credits join `bank`, up to
/// kCreditCap.  Returns the new bank; the rest of the accrual expires.
constexpr std::size_t bank_credits(std::size_t bank,
                                   std::size_t accrual) noexcept {
    return bank + std::min(kCreditCap - std::min(kCreditCap, bank), accrual);
}

}  // namespace espread::control
