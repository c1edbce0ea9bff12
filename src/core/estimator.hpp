// Adaptive bursty-loss estimation (paper §4.2, Eq. 1).
//
// The client measures, per buffer window, the largest run of consecutive
// losses in *transmission* order and reports it in its ACK.  The server
// smooths these observations with an exponential average
//
//     b_hat[k+1] = alpha * observed[k] + (1 - alpha) * b_hat[k]
//
// with alpha = 1/2 ("we consider the current network loss and the average
// past network loss to be equally important") and uses ceil(b_hat), clamped
// to [1, window], as the b parameter of calculatePermutation for the next
// window.  Before any feedback arrives the server assumes the average case
// b = window / 2.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

#include "core/metrics.hpp"

namespace espread {

/// Exponential-average estimator of the bursty-loss bound b.
class BurstEstimator {
public:
    /// `window` is the LDU window size n (bounds the estimate);
    /// `alpha` is the exponential-averaging weight of the newest sample.
    /// The endpoints are exact, not merely limits: alpha == 0 freezes the
    /// estimate at the prior window / 2 forever (observations are counted
    /// but never move it), and alpha == 1 is pure tracking — the estimate
    /// equals the latest clamped observation with no memory of the past.
    /// Throws std::invalid_argument for window == 0 or alpha outside [0, 1].
    explicit BurstEstimator(std::size_t window, double alpha = 0.5);

    /// Called after each update() with the clamped observation and the
    /// estimate before/after the exponential-average step.  Observability
    /// hook: must not throw and must not call back into the estimator.
    using UpdateObserver = std::function<void(
        std::size_t observed, double old_estimate, double new_estimate)>;

    /// Incorporates one per-window observation of the max transmission
    /// burst.  Values larger than the window are clamped.
    void update(std::size_t observed_max_burst);

    /// Guarded Eq. 1 step: additionally clamps the observation into
    /// [bound() - max_step, bound() + max_step] before updating, so one
    /// spiked (or corrupted) observation can move bound() by at most
    /// `max_step`.  max_step == 0 degenerates to a frozen bound; the
    /// estimate still converges because later honest observations keep
    /// pulling it within the widening clamp.  Returns the observation
    /// actually applied (after both clamps).  Fires the observer like
    /// update().
    std::size_t guarded_update(std::size_t observed_max_burst,
                               std::size_t max_step);

    /// Resets the estimate to the no-feedback prior window / 2 (the
    /// assumption the paper's server makes before any feedback arrives).
    /// The observation count is preserved; no observer callback fires.
    void reset_to_prior() noexcept;

    /// The no-feedback prior window / 2: the estimate the paper's server
    /// assumes before any feedback arrives, and the one a governor falls
    /// back to.  Every path starts its estimate here.
    static constexpr double prior(std::size_t window) noexcept {
        return static_cast<double>(window) / 2.0;
    }

    /// One Eq. 1 step: the estimate after averaging in `observed` with
    /// weight `alpha`.  The one EWMA expression of update(), the engine's
    /// SoA pool and its scalar reference, so all three produce the same
    /// doubles.
    static constexpr double ewma_step(double estimate, double observed,
                                      double alpha) noexcept {
        return alpha * observed + (1.0 - alpha) * estimate;
    }

    /// Fraction of the estimate's distance to the no-feedback prior kept
    /// per missed feedback window while a governor is Degraded.
    static constexpr double kOutageDecay = 0.5;

    /// One outage-decay step: the estimate moved toward `prior`, keeping
    /// kOutageDecay of its distance.  The one decay expression of both
    /// governors (proto::AdaptationGovernor through decay_toward_prior(),
    /// the engine's governor_lite_step directly), so their decayed
    /// estimates are the same doubles.
    static constexpr double outage_decay_step(double estimate,
                                              double prior) noexcept {
        return prior + kOutageDecay * (estimate - prior);
    }

    /// Applies outage_decay_step() toward the prior window / 2: once per
    /// missed feedback window this is an exponential approach to the
    /// prior.  No observer callback.
    void decay_toward_prior() noexcept {
        estimate_ = outage_decay_step(estimate_, prior(window_));
    }

    /// Registers an observer of Eq. 1 steps (empty function detaches).
    void set_observer(UpdateObserver observer) { observer_ = std::move(observer); }

    /// Smoothed estimate (real-valued).
    double estimate() const noexcept { return estimate_; }

    /// Integer bound handed to calculatePermutation: ceil(estimate),
    /// clamped to [1, window].
    std::size_t bound() const noexcept;

    /// The bound a given real-valued estimate maps to (the ceil-and-clamp
    /// rule bound() applies), exposed so observers can translate estimate
    /// transitions into bound transitions.  Clamping is total: any
    /// estimate <= 0 (including large negatives) maps to 1, and any
    /// estimate > window maps to window, so callers may feed raw
    /// arithmetic results without range checks.
    static std::size_t bound_for(double estimate, std::size_t window) noexcept {
        // Tolerate floating-point dust from repeated averaging (an estimate
        // of 6 + 1e-11 must still round to 6, not 7).
        const double ceiled = std::ceil(estimate - 1e-9);
        const std::size_t b =
            ceiled <= 1.0 ? 1 : static_cast<std::size_t>(ceiled);
        return std::clamp<std::size_t>(b, 1, window);
    }

    std::size_t window() const noexcept { return window_; }
    double alpha() const noexcept { return alpha_; }
    std::size_t observations() const noexcept { return observations_; }

private:
    std::size_t window_;
    double alpha_;
    double estimate_;
    std::size_t observations_ = 0;
    UpdateObserver observer_;
};

}  // namespace espread
