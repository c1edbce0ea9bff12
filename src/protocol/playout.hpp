// Client-side playout model (paper §2.1's LDU time slots).
//
// The QoS framework the paper builds on gives every LDU an ideal playout
// slot: slot f spans [start_delay + f/rate, start_delay + (f+1)/rate).  A
// frame contributes continuity only if it is decodable AND completely
// arrived before its slot begins; a frame that arrives after its deadline
// is a unit loss exactly like a dropped one (its slot shows a repeat).
// The Session's window bookkeeping closes windows shortly after their
// transmission deadline, which under-counts nothing as long as the
// start-up delay covers one buffer window — this class makes that timing
// argument explicit and measurable, and lets experiments explore what
// happens when the start-up delay is shaved below the safe value.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "sim/event_queue.hpp"

namespace espread::proto {

/// What a PlayoutClock made of a stream's first frames.
struct PlayoutVerdict {
    /// Delivery mask: true iff the frame was ready strictly before its
    /// deadline.  Feeds the usual continuity metrics.
    LossMask on_time;
    /// Smallest start-up delay that would have made every recorded frame
    /// on time: the measured lower bound on the client buffer's time depth.
    sim::SimTime required_startup = 0;
};

/// Continuity of a stream judged by arrival times against playout deadlines.
class PlayoutClock {
public:
    /// `frame_rate` in LDUs per second; `startup_delay` is the time between
    /// stream start (t = 0) and the first slot's beginning — the paper sets
    /// it to one buffer-window duration (fill the client buffer first).
    /// Throws std::invalid_argument for non-positive rate or negative delay.
    PlayoutClock(double frame_rate, sim::SimTime startup_delay);

    /// Ideal playout instant of frame f (the beginning of its slot).
    sim::SimTime deadline(std::size_t frame) const noexcept;

    /// Sizes the ready table for frames [0, count) up front, so recording
    /// them neither grows nor reallocates it.  Observably a no-op: an
    /// unrecorded frame reads the same either way.
    void reserve(std::size_t count) {
        if (ready_.size() < count) ready_.resize(count);
    }

    /// Records that `frame` became playable (complete and decodable) at
    /// `when`.  Later duplicates are ignored; only the earliest counts.
    void frame_ready(std::size_t frame, sim::SimTime when);

    /// True when the frame was ready strictly before its deadline.
    bool on_time(std::size_t frame) const;

    /// Slack (deadline - ready time) of a frame; nullopt if never ready.
    /// Negative values mean the frame missed its slot.
    std::optional<sim::SimTime> slack(std::size_t frame) const;

    /// Judges frames [0, count) in one pass over their deadlines.
    PlayoutVerdict judge(std::size_t count) const;

private:
    double frame_rate_;
    sim::SimTime startup_delay_;
    std::vector<std::optional<sim::SimTime>> ready_;  // indexed by frame
};

}  // namespace espread::proto
