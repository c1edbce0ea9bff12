#include "protocol/recovery.hpp"

#include <algorithm>
#include <limits>

#include "core/control.hpp"

namespace espread::proto {

namespace {
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
}  // namespace

RepairScheduler::RepairScheduler(const RecoveryConfig& /*cfg*/,
                                 std::size_t num_windows)
    : num_windows_(num_windows) {
    queue_.reserve(RecoveryConfig::kQueueLimit);
    serviced_retry_.assign(num_windows_, 0);
}

RecoveryMode RepairScheduler::on_window_start(
    std::size_t k, std::optional<GovernorState> governor_state) {
    // Watchdog clock: a window that passed without any feedback arrival is
    // a miss.  The first two windows are grace — the window-0 ACK cannot
    // reach the sender before window 1 is underway, so their silence is
    // expected, not an outage (unless feedback already flowed before).
    if (k >= 2 || windows_since_feedback_ > 0 || feedback_seen_this_window_) {
        if (feedback_seen_this_window_) {
            windows_since_feedback_ = 0;
        } else {
            ++windows_since_feedback_;
        }
    }
    feedback_seen_this_window_ = false;

    if (governor_state.has_value()) {
        // Governed sessions: the governor's view of the feedback path
        // gates repair spending; its own watchdog subsumes ours.
        switch (*governor_state) {
            case GovernorState::kNormal:
                mode_ = RecoveryMode::kReactive;
                service_budget_ = kUnlimited;
                break;
            case GovernorState::kDegraded:
            case GovernorState::kFallback:
                mode_ = RecoveryMode::kSuspended;
                service_budget_ = 0;
                break;
            case GovernorState::kRecovering:
                // Slew-limited ramp back: one repair job per window.
                mode_ = RecoveryMode::kReactive;
                service_budget_ = 1;
                break;
        }
    } else if (windows_since_feedback_ >= control::kWatchdogWindows) {
        if (mode_ != RecoveryMode::kProactive) ++report_.watchdog_timeouts;
        mode_ = RecoveryMode::kProactive;
        service_budget_ = 0;
    } else {
        mode_ = RecoveryMode::kReactive;
        service_budget_ = kUnlimited;
    }

    switch (mode_) {
        case RecoveryMode::kReactive: ++report_.windows_reactive; break;
        case RecoveryMode::kSuspended: ++report_.windows_suspended; break;
        case RecoveryMode::kProactive: ++report_.windows_proactive; break;
    }
    return mode_;
}

void RepairScheduler::on_feedback_alive() {
    windows_since_feedback_ = 0;
    feedback_seen_this_window_ = true;
    if (mode_ == RecoveryMode::kProactive) {
        // First arrival after a watchdog timeout: the path is back, resume
        // reactive service immediately (the flip is counted on entry).
        mode_ = RecoveryMode::kReactive;
        service_budget_ = kUnlimited;
    }
}

std::optional<RepairJob> RepairScheduler::admit(const NackRequest& n,
                                                sim::SimTime deadline,
                                                sim::SimTime now) {
    if (n.window >= num_windows_) {
        // Only a forged or corrupted-but-decodable request can name a
        // window the stream does not have.
        ++report_.nacks_invalid;
        return std::nullopt;
    }
    if (deadline <= now) {
        ++report_.jobs_expired;
        return std::nullopt;
    }
    const std::size_t retry = std::min<std::size_t>(n.retry, 255);
    if (retry + 1 <= serviced_retry_[n.window]) {
        // This retry round (or a later one) was already admitted: a
        // duplicated or reordered copy must not trigger double servicing.
        ++report_.nacks_duplicate;
        return std::nullopt;
    }
    serviced_retry_[n.window] = static_cast<std::uint8_t>(retry + 1);
    ++report_.nacks_admitted;
    RepairJob job;
    job.seq = n.seq;
    job.window = n.window;
    job.missing = n.missing;
    job.rank_deficit = n.rank_deficit;
    job.retry = retry;
    job.deadline = deadline;
    return job;
}

std::optional<RepairJob> RepairScheduler::enqueue(RepairJob job) {
    if (queue_.size() < RecoveryConfig::kQueueLimit) {
        queue_.push_back(job);
        return std::nullopt;
    }
    // Overload: shed the job with the earliest deadline — it has the least
    // playout budget left, so its repairs are the least likely to land in
    // time.  The incoming job competes on the same footing.
    auto victim = std::min_element(queue_.begin(), queue_.end(),
                                   [](const RepairJob& a, const RepairJob& b) {
                                       return a.deadline < b.deadline;
                                   });
    ++report_.jobs_shed;
    if (victim->deadline <= job.deadline) {
        RepairJob shed = *victim;
        *victim = job;
        return shed;
    }
    return job;
}

bool RepairScheduler::may_service_now() const noexcept {
    return mode_ == RecoveryMode::kReactive && service_budget_ > 0;
}

void RepairScheduler::note_serviced() noexcept {
    if (service_budget_ != kUnlimited && service_budget_ > 0) {
        --service_budget_;
    }
}

std::optional<RepairJob> RepairScheduler::next_job(sim::SimTime now) {
    if (!may_service_now()) return std::nullopt;
    for (;;) {
        if (queue_.empty()) return std::nullopt;
        auto soonest = std::min_element(
            queue_.begin(), queue_.end(),
            [](const RepairJob& a, const RepairJob& b) {
                return a.deadline < b.deadline;
            });
        RepairJob job = *soonest;
        queue_.erase(soonest);
        if (job.deadline <= now) {
            ++report_.jobs_expired;
            continue;
        }
        return job;
    }
}

}  // namespace espread::proto
