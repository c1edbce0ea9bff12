// Minimal discrete-event simulation engine.
//
// The transmission-protocol simulation (src/protocol) is event-driven:
// packet departures, packet arrivals after link delay, ACK arrivals and
// playout deadlines are all events scheduled on one EventQueue.  Time is
// kept in integer nanoseconds so that runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace espread::sim {

/// Simulated time in integer nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kNanosPerSecond = 1'000'000'000;

/// Converts seconds (double) to SimTime, rounding to nearest nanosecond.
constexpr SimTime from_seconds(double s) noexcept {
    return static_cast<SimTime>(s * static_cast<double>(kNanosPerSecond) + 0.5);
}

/// Converts SimTime to seconds.
constexpr double to_seconds(SimTime t) noexcept {
    return static_cast<double>(t) / static_cast<double>(kNanosPerSecond);
}

/// Converts milliseconds to SimTime.
constexpr SimTime from_millis(double ms) noexcept { return from_seconds(ms / 1e3); }

/// Priority queue of timestamped callbacks with deterministic FIFO
/// tie-breaking for events scheduled at the same instant.
///
/// A binary heap under the (when, seq) order holds one-off callbacks,
/// moved and never copied.  A *feed* keeps its own events sorted by
/// (when, seq), with seq from stamp(), and shows the queue only its
/// head; step() runs the earlier of the heap front and the armed feed
/// heads, so a feed event runs exactly where schedule_at would have put
/// it.  Each net::Channel is one feed: it delivers in send order unless
/// a fault displaces a packet, so a send appends where the heap would
/// sift, and the heap keeps only a few timers per window.
class EventQueue {
public:
    using Callback = std::function<void()>;

    /// Current simulated time.  Starts at 0 and only moves forward.
    SimTime now() const noexcept { return now_; }

    /// Schedules `cb` to run at absolute time `when` (>= now()).
    /// Scheduling in the past is clamped to now() — the event still runs,
    /// immediately, preserving causality.  Throws std::invalid_argument
    /// for a null callback; on any throw the queue is unchanged.
    void schedule_at(SimTime when, Callback cb);

    /// Runs the earliest pending event; returns false if the queue is empty.
    bool step();

    /// Runs events until the queue is empty or the next event is after
    /// `deadline`; leaves now() at max(now(), deadline).
    void run_until(SimTime deadline);

    /// Runs all pending events (including ones scheduled by other events).
    /// `max_events` guards against runaway self-scheduling loops: throws
    /// std::runtime_error once that many events have run and more remain.
    void run(std::uint64_t max_events = 100'000'000);

    /// Both count feed events.
    bool empty() const noexcept { return pending() == 0; }
    std::size_t pending() const noexcept;

    /// Registers a disarmed feed and returns its id.  `run_head` runs the
    /// armed head at its time and must re-arm the feed or disarm it; it
    /// must not add feeds.
    std::size_t add_feed(Callback run_head);
    /// Takes the next FIFO sequence number, as schedule_at would.
    std::uint64_t stamp() noexcept { return next_seq_++; }
    /// Shows `feed`'s head (when >= now()) and how many events it holds.
    void arm(std::size_t feed, SimTime when, std::uint64_t seq,
             std::size_t depth) noexcept {
        feeds_[feed].head.when = when;
        feeds_[feed].head.seq = seq;
        feeds_[feed].depth = depth;
    }
    void disarm(std::size_t feed) noexcept { feeds_[feed].depth = 0; }

private:
    struct Entry {
        SimTime when;
        std::uint64_t seq;  // FIFO order among equal timestamps
        Callback cb;
    };
    /// Heap comparator: the earliest (when, seq) sits at heap_.front().
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    struct Feed {
        Entry head;             // cb is the feed's run_head
        std::size_t depth = 0;  // 0 = disarmed
    };

    /// The earliest pending event, or nullptr; `feed` is its feed's id,
    /// or feeds_.size() for the heap front.
    const Entry* next(std::size_t& feed) const noexcept;

    std::vector<Entry> heap_;
    std::vector<Feed> feeds_;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

}  // namespace espread::sim
