#include "core/estimator.hpp"

#include <algorithm>
#include <stdexcept>

namespace espread {

BurstEstimator::BurstEstimator(std::size_t window, double alpha)
    : window_(window),
      alpha_(alpha),
      estimate_(prior(window)) {
    if (window == 0) throw std::invalid_argument("BurstEstimator: window must be positive");
    if (alpha < 0.0 || alpha > 1.0) {
        throw std::invalid_argument("BurstEstimator: alpha must be in [0, 1]");
    }
}

void BurstEstimator::update(std::size_t observed_max_burst) {
    const std::size_t clamped = std::min(observed_max_burst, window_);
    const double obs = static_cast<double>(clamped);
    const double old_estimate = estimate_;
    estimate_ = ewma_step(estimate_, obs, alpha_);
    ++observations_;
    if (observer_) observer_(clamped, old_estimate, estimate_);
}

std::size_t BurstEstimator::guarded_update(std::size_t observed_max_burst,
                                           std::size_t max_step) {
    const std::size_t b = bound();
    const std::size_t lo = b > max_step ? b - max_step : 0;
    const std::size_t hi = b + max_step;  // update() re-clamps to the window
    const std::size_t guarded =
        std::clamp(std::min(observed_max_burst, window_), lo, hi);
    // The estimate moves between its old value and the guarded observation,
    // both of which map to bounds within max_step of b, so bound() cannot
    // move further than that in one step.
    update(guarded);
    return guarded;
}

void BurstEstimator::reset_to_prior() noexcept {
    estimate_ = prior(window_);
}

std::size_t BurstEstimator::bound() const noexcept {
    return bound_for(estimate_, window_);
}

}  // namespace espread
