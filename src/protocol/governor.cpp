#include "protocol/governor.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "sim/contracts.hpp"

namespace espread::proto {

static_assert(std::size(contracts::kGovernorStateNames) ==
              static_cast<std::size_t>(GovernorState::kRecovering) + 1);

void GovernorConfig::validate() const {
    if (hysteresis_windows == 0) {
        throw std::invalid_argument(
            "GovernorConfig: hysteresis_windows must be >= 1");
    }
    if (max_step == 0) {
        throw std::invalid_argument("GovernorConfig: max_step must be >= 1");
    }
}

AdaptationGovernor::AdaptationGovernor(GovernorConfig cfg,
                                       espread::BurstEstimator& estimator)
    : cfg_(cfg), estimator_(estimator) {
    cfg_.validate();
    published_ = estimator_.bound();
    candidate_bound_ = published_;
}

std::size_t AdaptationGovernor::prior_bound() const noexcept {
    return espread::BurstEstimator::bound_for(
        espread::BurstEstimator::prior(estimator_.window()),
        estimator_.window());
}

void AdaptationGovernor::enter_state(GovernorState next, std::size_t window,
                                     sim::SimTime now) {
    if (next == state_) return;
    const GovernorState old = state_;
    state_ = next;
    ++report_.transitions;
    ++report_.state_entries[static_cast<std::size_t>(next)];
    current_dwell_ = 0;
    if (next == GovernorState::kFallback) ++report_.fallbacks;
    if (next == GovernorState::kRecovering) ++report_.recoveries;
    if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.type = obs::EventType::kGovernorState;
        e.actor = obs::Actor::kServer;
        e.window = window;
        e.arg = static_cast<std::int64_t>(next);
        e.v0 = static_cast<double>(old);
        e.v1 = static_cast<double>(misses_);
        trace_->record(e);
    }
}

std::size_t AdaptationGovernor::on_window_start(std::size_t k,
                                                sim::SimTime now) {
    current_window_ = k;
    if (!started_) {
        // Window 0 runs on the prior; there is no feedback deadline to miss
        // yet, so the watchdog arms only from window 1 on.
        started_ = true;
        published_ = estimator_.bound();
        candidate_bound_ = published_;
        candidate_streak_ = 0;
        // The window clock starting is the first (Normal) visit beginning.
        ++report_.state_entries[static_cast<std::size_t>(state_)];
        ++report_.windows_in_state[static_cast<std::size_t>(state_)];
        ++current_dwell_;
        report_.longest_dwell[static_cast<std::size_t>(state_)] = std::max(
            report_.longest_dwell[static_cast<std::size_t>(state_)],
            current_dwell_);
        return published_;
    }

    // Watchdog: one deadline per window.  The clock is the window index —
    // feedback that failed to arrive between two window starts is a miss.
    // Window w's ACK departs only after window w+1 begins, so the earliest
    // arrival of any feedback is during window 1 and the first deadline
    // the watchdog may check is at the start of window 2.
    if (k >= 2) {
        if (fresh_feedback_) {
            misses_ = 0;
        } else {
            ++misses_;
        }
    }
    fresh_feedback_ = false;

    switch (state_) {
        case GovernorState::kNormal:
            if (misses_ > cfg_.miss_budget) {
                enter_state(GovernorState::kFallback, k, now);
                estimator_.reset_to_prior();
            } else if (misses_ >= 1) {
                enter_state(GovernorState::kDegraded, k, now);
                estimator_.decay_toward_prior();
            }
            break;
        case GovernorState::kDegraded:
            if (misses_ == 0) {
                enter_state(GovernorState::kNormal, k, now);
            } else if (misses_ > cfg_.miss_budget) {
                enter_state(GovernorState::kFallback, k, now);
                estimator_.reset_to_prior();
            } else {
                // Each further miss halves the estimate's distance to the
                // no-feedback prior: a soft landing toward the same bound
                // Fallback pins, so the hard reset is never a cliff.
                estimator_.decay_toward_prior();
            }
            break;
        case GovernorState::kFallback:
            if (misses_ == 0) {
                enter_state(GovernorState::kRecovering, k, now);
                recovery_left_ = rearm_windows_;
            }
            break;
        case GovernorState::kRecovering:
            if (misses_ > 0) {
                // Outage recurring mid-recovery: double the clean-feedback
                // streak required next time (exponential-backoff re-arming)
                // so a flapping ACK path cannot oscillate the bound.
                rearm_windows_ = std::min(rearm_windows_ * 2,
                                          GovernorConfig::kMaxRearmWindows);
                if (misses_ > cfg_.miss_budget) {
                    enter_state(GovernorState::kFallback, k, now);
                    estimator_.reset_to_prior();
                } else {
                    enter_state(GovernorState::kDegraded, k, now);
                    estimator_.decay_toward_prior();
                }
            } else if (recovery_left_ <= 1) {
                enter_state(GovernorState::kNormal, k, now);
                rearm_windows_ = control::kRecoveryWindows;
            } else {
                --recovery_left_;
            }
            break;
    }

    const std::size_t raw = estimator_.bound();
    switch (state_) {
        case GovernorState::kFallback:
            published_ = prior_bound();
            candidate_bound_ = published_;
            candidate_streak_ = 0;
            break;
        case GovernorState::kDegraded:
            // Track the decaying estimate directly; hysteresis would only
            // delay the retreat to the safer prior.
            published_ = raw;
            candidate_bound_ = raw;
            candidate_streak_ = 0;
            break;
        case GovernorState::kRecovering:
            // Slew-limited ramp: at most max_step per window back toward
            // whatever the re-fed estimator now says.
            published_ = control::slew_step(published_, raw, cfg_.max_step);
            candidate_bound_ = published_;
            candidate_streak_ = 0;
            break;
        case GovernorState::kNormal:
            if (raw == published_) {
                candidate_bound_ = raw;
                candidate_streak_ = 0;
            } else {
                if (raw == candidate_bound_) {
                    ++candidate_streak_;
                } else {
                    candidate_bound_ = raw;
                    candidate_streak_ = 1;
                }
                if (candidate_streak_ >= cfg_.hysteresis_windows) {
                    published_ = raw;
                    candidate_streak_ = 0;
                }
            }
            break;
    }

    ++report_.windows_in_state[static_cast<std::size_t>(state_)];
    ++current_dwell_;
    report_.longest_dwell[static_cast<std::size_t>(state_)] =
        std::max(report_.longest_dwell[static_cast<std::size_t>(state_)],
                 current_dwell_);
    return published_;
}

std::optional<AckRejectReason> AdaptationGovernor::admit_ack(
    std::size_t window, std::uint64_t seq, sim::SimTime now) {
    std::optional<AckRejectReason> reason;
    if (!started_ || window > current_window_ ||
        (window == current_window_ && !stream_closed_)) {
        // A window's ACK departs only after the next window has started, so
        // an ACK claiming the current (or a later, or an un-started) window
        // can only be a corrupted-but-plausible header — except the final
        // window's own ACK, which arrives after the clock stops
        // (close_stream()).
        reason = AckRejectReason::kFuture;
    } else if (last_ack_window_.has_value() && window == *last_ack_window_) {
        reason = AckRejectReason::kDuplicate;
    } else if (last_ack_window_.has_value() && window < *last_ack_window_) {
        reason = AckRejectReason::kStale;
    }
    if (!reason.has_value()) {
        last_ack_window_ = window;
        fresh_feedback_ = true;
        return std::nullopt;
    }
    switch (*reason) {
        case AckRejectReason::kDuplicate: ++report_.acks_rejected_duplicate; break;
        case AckRejectReason::kStale: ++report_.acks_rejected_stale; break;
        case AckRejectReason::kFuture: ++report_.acks_rejected_future; break;
    }
    if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.type = obs::EventType::kGovernorAckReject;
        e.actor = obs::Actor::kServer;
        e.window = current_window_;
        e.seq = seq;
        e.arg = static_cast<std::int64_t>(*reason);
        e.v0 = static_cast<double>(window);
        trace_->record(e);
    }
    return reason;
}

void AdaptationGovernor::on_observation(std::size_t observed_max_burst,
                                        sim::SimTime now) {
    const std::size_t before = estimator_.bound();
    const std::size_t applied =
        estimator_.guarded_update(observed_max_burst, cfg_.max_step);
    const std::size_t plain_clamp =
        std::min(observed_max_burst, estimator_.window());
    if (applied != plain_clamp) {
        ++report_.observations_clamped;
        if (trace_ != nullptr) {
            obs::TraceEvent e;
            e.time = now;
            e.type = obs::EventType::kGovernorClamp;
            e.actor = obs::Actor::kServer;
            e.window = current_window_;
            e.arg = static_cast<std::int64_t>(observed_max_burst);
            e.v0 = static_cast<double>(applied);
            e.v1 = static_cast<double>(before);
            trace_->record(e);
        }
    }
}

}  // namespace espread::proto
