// Adaptation governor: a supervised, self-healing feedback control loop
// around the paper's Eq. 1 burst estimator.
//
// The adaptive half of the protocol (§4.2, Fig. 6) is a feedback loop: the
// client's per-window max-burst ACKs steer the server's permutation
// parameter b.  Left unsupervised that loop trusts every ACK blindly and
// silently freezes its estimate when feedback dies — a bad or missing ACK
// today shapes permutations two windows out with no recovery story.  The
// AdaptationGovernor bounds how long (and how far) lost or hostile side
// information can steer the estimator:
//
//   * a per-window watchdog counts missed feedback deadlines (window
//     indices are the clock — the governor never reads wall time, so a
//     governed session stays a pure function of (config, seed));
//   * ACKs are sequenced by the buffer window they report on: duplicates,
//     out-of-order stragglers and implausible future windows are rejected
//     before they touch the estimator;
//   * accepted observations pass through an outlier guard (one ACK can
//     move the published bound by at most `max_step`) and a hysteresis
//     filter (the published bound changes only after the estimator's raw
//     bound persists for `hysteresis_windows` consecutive windows);
//   * a miss budget arms a staged degradation: within the budget the
//     estimate decays exponentially toward the paper's no-feedback prior
//     b = n/2 (Degraded); past it the estimator hard-resets to the prior
//     (Fallback); once fresh ACKs return, the published bound ramps back
//     to the estimator under a slew limit (Recovering) before the
//     governor declares Normal.  An outage that recurs mid-recovery
//     doubles the required clean-feedback streak (exponential-backoff
//     re-arming), so a flapping ACK path cannot oscillate the bound.
//
//                 feedback resumes                 misses <= budget
//        +-----------------------------+   +--------------------------+
//        v                             |   v                          |
//   [Normal] --misses in (0,budget]--> [Degraded] --misses > budget--+
//        ^                             |                              |
//        |                             +--misses > budget--> [Fallback]
//        |  clean streak of                                      |
//        |  rearm windows                                        | feedback
//        +----------------- [Recovering] <-----------------------+ resumes
//                             |    ^
//                             +----+  (outage mid-recovery: back to
//                                      Degraded/Fallback, rearm doubles)
//
// Every transition, rejection and clamp is traced (obs::kGovernorState /
// kGovernorAckReject / kGovernorClamp) and counted in a GovernorReport the
// session surfaces through SessionResult and MetricsRegistry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/estimator.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace espread::proto {

/// Supervision state of the adaptation loop.
enum class GovernorState : std::uint8_t {
    kNormal = 0,      ///< feedback flowing; hysteresis + outlier guard only
    kDegraded = 1,    ///< missed deadlines within budget; decaying to prior
    kFallback = 2,    ///< sustained outage; pinned to the prior b = n/2
    kRecovering = 3,  ///< feedback returned; slew-limited ramp back
};

/// Why an ACK was refused by the window-sequence admission check.
enum class AckRejectReason : std::uint8_t {
    kDuplicate = 0,  ///< same window as the last accepted ACK
    kStale = 1,      ///< window older than the last accepted ACK
    kFuture = 2,     ///< window not yet started (corrupt/implausible header)
};

/// Thresholds of the governor.  Defaults are conservative enough to ride
/// through one lost ACK without leaving Normal; `enabled = false` (the
/// default) keeps the session byte-identical to an ungoverned one.
struct GovernorConfig {
    bool enabled = false;

    /// Consecutive missed feedback windows tolerated (Degraded) before the
    /// estimator hard-resets to the prior (Fallback).
    std::size_t miss_budget = 3;

    /// Largest move of the published bound a single accepted ACK (or one
    /// Recovering window) may cause.
    std::size_t max_step = 4;

    /// Windows the estimator's raw bound must persist at a new value
    /// before the published bound follows it (Normal state only).
    /// 1 publishes immediately; 0 is invalid.
    std::size_t hysteresis_windows = 2;

    /// Clean-feedback windows required to leave Recovering for Normal
    /// after a Fallback.  Doubles (up to kMaxRearmWindows) every time an
    /// outage recurs mid-recovery; resets on reaching Normal.
    static constexpr std::size_t kRecoveryWindows = 4;

    /// Upper limit of the exponential-backoff re-arming streak.
    static constexpr std::size_t kMaxRearmWindows = 32;

    /// Throws std::invalid_argument on out-of-range thresholds.
    void validate() const;
};

/// Counters surfaced through SessionResult::governor and, when metric
/// collection is on, the session's MetricsRegistry.
struct GovernorReport {
    /// Buffer windows spent in each state, indexed by GovernorState.
    std::size_t windows_in_state[4] = {0, 0, 0, 0};
    /// Visits begun in each state (the initial Normal counts as the first
    /// visit once the window clock starts).  Invariant after
    /// on_window_start(0): sum(state_entries) == transitions + 1.
    std::size_t state_entries[4] = {0, 0, 0, 0};
    /// Longest single visit to each state, in windows (eagerly maxed, so
    /// it includes the still-open current visit).
    std::size_t longest_dwell[4] = {0, 0, 0, 0};
    std::size_t acks_rejected_duplicate = 0;
    std::size_t acks_rejected_stale = 0;
    std::size_t acks_rejected_future = 0;
    std::size_t observations_clamped = 0;  ///< outlier guard engaged
    std::size_t fallbacks = 0;             ///< entries into Fallback
    std::size_t recoveries = 0;            ///< entries into Recovering
    std::size_t transitions = 0;           ///< all state changes

    std::size_t acks_rejected() const noexcept {
        return acks_rejected_duplicate + acks_rejected_stale +
               acks_rejected_future;
    }
};

/// Supervises one BurstEstimator.  Deterministic: behavior depends only on
/// the sequence of on_window_start / admit_ack / on_observation calls; the
/// sim::SimTime arguments stamp trace events and never influence control.
class AdaptationGovernor {
public:
    /// `estimator` must outlive the governor.  Validates `cfg`.
    AdaptationGovernor(GovernorConfig cfg, espread::BurstEstimator& estimator);

    /// Attaches a trace sink (non-owning; nullptr detaches).
    void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

    /// Advances the window clock to `k` (call once per window, in order,
    /// starting at 0), runs the watchdog and state machine, and returns
    /// the governed bound the planner must use for this window.
    std::size_t on_window_start(std::size_t k, sim::SimTime now = 0);

    /// Declares that no further window will start: the current window is
    /// the stream's last.  Its own ACK — which can only arrive after the
    /// window-start clock has stopped — then passes admission instead of
    /// being misread as a future-window forgery.
    void close_stream() noexcept { stream_closed_ = true; }

    /// Window-sequence admission for one arriving ACK.  Returns nullopt to
    /// accept (this also feeds the watchdog) or the reason to reject —
    /// rejected ACKs must not reach the estimator.  `seq` is only stamped
    /// into the trace.
    std::optional<AckRejectReason> admit_ack(std::size_t window,
                                             std::uint64_t seq,
                                             sim::SimTime now = 0);

    /// Applies one accepted ACK's observation through the outlier guard
    /// (BurstEstimator::guarded_update with max_step).
    void on_observation(std::size_t observed_max_burst, sim::SimTime now = 0);

    GovernorState state() const noexcept { return state_; }
    /// Bound published at the last on_window_start.
    std::size_t governed_bound() const noexcept { return published_; }
    /// Consecutive windows started without fresh accepted feedback.
    std::size_t missed_windows() const noexcept { return misses_; }
    const GovernorReport& report() const noexcept { return report_; }
    const GovernorConfig& config() const noexcept { return cfg_; }

private:
    void enter_state(GovernorState next, std::size_t window, sim::SimTime now);
    std::size_t prior_bound() const noexcept;

    GovernorConfig cfg_;
    espread::BurstEstimator& estimator_;
    obs::TraceSink* trace_ = nullptr;

    GovernorState state_ = GovernorState::kNormal;
    std::size_t current_window_ = 0;
    bool started_ = false;           ///< on_window_start(0) seen
    bool stream_closed_ = false;     ///< current window is the stream's last
    bool fresh_feedback_ = false;    ///< accepted ACK since last window start
    std::size_t misses_ = 0;         ///< consecutive feedback-less windows
    std::size_t published_ = 0;      ///< bound handed to the planner
    std::optional<std::size_t> last_ack_window_;  ///< highest accepted window
    std::size_t candidate_bound_ = 0;     ///< hysteresis: pending raw bound
    std::size_t candidate_streak_ = 0;    ///< windows the candidate persisted
    std::size_t recovery_left_ = 0;       ///< Recovering windows remaining
    /// Current re-arming requirement.
    std::size_t rearm_windows_ = GovernorConfig::kRecoveryWindows;
    std::size_t current_dwell_ = 0;       ///< windows in the current visit
    GovernorReport report_;
};

}  // namespace espread::proto
