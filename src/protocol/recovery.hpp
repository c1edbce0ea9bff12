// Sender-side repair scheduler of the receiver-authoritative recovery
// plane (DESIGN.md §13).
//
// The client names its losses (NackRequest: missing-frame bitmap + RLC
// rank deficit) and this scheduler decides whether, and how hard, the
// sender answers.  It owns the control-plane state only — admission
// (per-window retry dedupe), the bounded job queue with
// earliest-deadline-first eviction under overload, the feedback watchdog,
// and the governor gating — while the Session performs the actual
// side-band sends, so the scheduler is a small deterministic state machine
// that unit tests drive directly.
//
// Servicing policy, closing the loop between the governor (PR 4) and the
// FEC arm (PR 8):
//   * Normal / ungoverned with live feedback: serve a NACK immediately,
//     spending up to kMaxRepairsPerNack repair credits plus the
//     requested retransmissions.
//   * Degraded / Fallback: repair spending is suspended — jobs queue
//     (bounded, shedding the earliest deadline first) and the RLC credit
//     schedule reverts to fixed proactive emission, because the same
//     signal that degraded the estimator (missing/hostile feedback) makes
//     NACKs untrustworthy or absent.
//   * Recovering: slew-limited — one queued job is released per window.
//   * Watchdog (ungoverned sessions): control::kWatchdogWindows consecutive
//     windows without feedback flips the plane to proactive mode (fixed
//     credit schedule) until feedback returns, so a dead feedback path
//     degrades to the pure FEC/spreading behavior instead of banking
//     credits forever.
//
// Window indices are the only clock (like the governor), so a governed,
// NACK-driven session remains a pure function of (config, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/config.hpp"
#include "protocol/governor.hpp"
#include "protocol/wire.hpp"
#include "sim/event_queue.hpp"

namespace espread::proto {

/// Operating mode of the repair plane, derived each window from the
/// watchdog and (when governed) the governor state.
enum class RecoveryMode : std::uint8_t {
    kReactive = 0,   ///< feedback live: NACK-driven spending
    kSuspended = 1,  ///< governor Degraded/Fallback: queue, spend nothing
    kProactive = 2,  ///< feedback dead: fixed credit schedule (degraded)
};

/// One admitted repair request awaiting service.
struct RepairJob {
    std::uint64_t seq = 0;         ///< NACK sequence (tracing only)
    std::size_t window = 0;
    std::uint64_t missing = 0;     ///< local-frame bitmap from the NACK
    std::size_t rank_deficit = 0;
    std::size_t retry = 0;
    sim::SimTime deadline = 0;     ///< window's playout-budget end
};

/// Counters surfaced through SessionResult metrics (recovery.* keys).
struct RepairSchedulerReport {
    std::size_t nacks_admitted = 0;
    std::size_t nacks_duplicate = 0;   ///< retry round already serviced
    std::size_t nacks_invalid = 0;     ///< implausible window (forged/corrupt)
    std::size_t jobs_shed = 0;         ///< evicted by queue overflow
    std::size_t jobs_expired = 0;      ///< deadline passed before service
    std::size_t watchdog_timeouts = 0; ///< reactive -> proactive flips
    std::size_t windows_reactive = 0;
    std::size_t windows_suspended = 0;
    std::size_t windows_proactive = 0;
};

/// Decides admission, queueing and per-window service budgets for repair
/// requests.  The Session calls on_window_start once per window (in
/// window order), offers every decoded NackRequest via admit, and asks
/// next_job for work it is allowed to perform now.
class RepairScheduler {
public:
    /// `num_windows` bounds plausible NACK windows.  The queue bound and
    /// watchdog length are RecoveryConfig's constants; whether the
    /// governor or the watchdog decides suspension is chosen per window by
    /// on_window_start.
    RepairScheduler(const RecoveryConfig& cfg, std::size_t num_windows);

    /// Clocks the watchdog and publishes the mode for window `k`.  With a
    /// governor, its state for this window decides suspension; without
    /// one, the watchdog does.  Returns the mode in force.
    RecoveryMode on_window_start(std::size_t k,
                                 std::optional<GovernorState> governor_state);

    /// Any feedback-path arrival (ACK or NACK) feeds the watchdog.
    void on_feedback_alive();

    /// Offers one decoded NackRequest.  Returns a job when the request is
    /// admitted (fresh window/retry and plausible window index); nullopt
    /// when it is refused (duplicate retry, stale, or forged).  Admitted
    /// jobs are NOT queued — the caller either services the job now
    /// (mode() == kReactive) or hands it back via enqueue.
    std::optional<RepairJob> admit(const NackRequest& n, sim::SimTime deadline,
                                   sim::SimTime now);

    /// Parks an admitted job while servicing is suspended.  A full queue
    /// sheds the job with the earliest deadline (returned so the caller
    /// can trace kRepairShed; nullopt when nothing was shed).
    std::optional<RepairJob> enqueue(RepairJob job);

    /// True when the mode and this window's service budget allow spending
    /// on a repair job right now (Recovering is slew-limited to one job
    /// per window; suspended and proactive windows allow none).
    bool may_service_now() const noexcept;

    /// Debits this window's service budget after the caller performed one
    /// job's sends.
    void note_serviced() noexcept;

    /// Releases the next queued job the current mode and budget allow.
    /// Expired jobs (deadline <= now) are dropped and counted.  Call
    /// repeatedly until nullopt; the caller performs the sends and then
    /// calls note_serviced.
    std::optional<RepairJob> next_job(sim::SimTime now);

    RecoveryMode mode() const noexcept { return mode_; }
    std::size_t queued() const noexcept { return queue_.size(); }
    const RepairSchedulerReport& report() const noexcept { return report_; }

private:
    std::size_t num_windows_;
    RecoveryMode mode_ = RecoveryMode::kReactive;
    std::size_t service_budget_ = 0;  ///< jobs this window may still spend on
    std::size_t windows_since_feedback_ = 0;
    bool feedback_seen_this_window_ = false;
    std::vector<RepairJob> queue_;  ///< unordered; scanned (bounded by kQueueLimit)
    /// Highest retry round serviced per window, +1 (0 = none yet).
    std::vector<std::uint8_t> serviced_retry_;
    RepairSchedulerReport report_;
};

}  // namespace espread::proto
