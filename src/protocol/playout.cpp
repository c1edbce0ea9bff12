#include "protocol/playout.hpp"

#include <algorithm>
#include <stdexcept>

namespace espread::proto {

PlayoutClock::PlayoutClock(double frame_rate, sim::SimTime startup_delay)
    : frame_rate_(frame_rate), startup_delay_(startup_delay) {
    if (frame_rate <= 0.0) {
        throw std::invalid_argument("PlayoutClock: frame rate must be positive");
    }
    if (startup_delay < 0) {
        throw std::invalid_argument("PlayoutClock: negative startup delay");
    }
}

sim::SimTime PlayoutClock::deadline(std::size_t frame) const noexcept {
    return startup_delay_ +
           sim::from_seconds(static_cast<double>(frame) / frame_rate_);
}

void PlayoutClock::frame_ready(std::size_t frame, sim::SimTime when) {
    if (frame >= ready_.size()) ready_.resize(frame + 1);
    if (!ready_[frame].has_value() || when < *ready_[frame]) {
        ready_[frame] = when;
    }
}

bool PlayoutClock::on_time(std::size_t frame) const {
    if (frame >= ready_.size() || !ready_[frame].has_value()) return false;
    return *ready_[frame] < deadline(frame);
}

std::optional<sim::SimTime> PlayoutClock::slack(std::size_t frame) const {
    if (frame >= ready_.size() || !ready_[frame].has_value()) return std::nullopt;
    return deadline(frame) - *ready_[frame];
}

PlayoutVerdict PlayoutClock::judge(std::size_t count) const {
    PlayoutVerdict v;
    v.on_time.assign(count, false);
    for (std::size_t f = 0; f < count && f < ready_.size(); ++f) {
        if (!ready_[f].has_value()) continue;
        const sim::SimTime ready = *ready_[f];
        // Frame f's deadline is startup + f/rate: it is on time iff it
        // became ready before that.
        const sim::SimTime ideal_offset =
            sim::from_seconds(static_cast<double>(f) / frame_rate_);
        v.on_time[f] = ready < startup_delay_ + ideal_offset;
        v.required_startup = std::max(v.required_startup, ready - ideal_offset + 1);
    }
    return v;
}

}  // namespace espread::proto
