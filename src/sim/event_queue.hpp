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
/// The binary heap (std::push_heap / std::pop_heap under the (when, seq)
/// order) holds trivially copyable 24-byte keys; each key names a slot
/// in a callback slab with a LIFO free list.  A sift step therefore
/// copies three words instead of moving a std::function, and step()
/// moves the earliest callback out of its slot instead of copying it.
/// A callback whose capture fits std::function's inline buffer (e.g. a
/// pointer plus an index) is scheduled and run without touching the heap
/// allocator once the slab has grown to the simulation's peak pending
/// count.
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

    /// Schedules `cb` to run `delay` after the current time.
    void schedule_after(SimTime delay, Callback cb);

    /// Runs the earliest pending event; returns false if the queue is empty.
    bool step();

    /// Runs events until the queue is empty or the next event is after
    /// `deadline`; leaves now() at max(now(), deadline).
    void run_until(SimTime deadline);

    /// Runs all pending events (including ones scheduled by other events).
    /// `max_events` guards against runaway self-scheduling loops: throws
    /// std::runtime_error once that many events have run and more remain.
    void run(std::uint64_t max_events = 100'000'000);

    bool empty() const noexcept { return heap_.empty(); }
    std::size_t pending() const noexcept { return heap_.size(); }

private:
    struct Entry {
        SimTime when;
        std::uint64_t seq;  // FIFO order among equal timestamps
        std::size_t slot;   // index into slab_
    };
    /// Heap comparator: the earliest (when, seq) sits at heap_.front().
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /// Appends one empty slot to the slab and the free list.
    void grow();

    std::vector<Entry> heap_;
    /// Pending callbacks by slot; a free slot holds an empty Callback.
    /// heap_.size() + free_slots_.size() == slab_.size().
    std::vector<Callback> slab_;
    std::vector<std::size_t> free_slots_;  ///< LIFO free list into slab_
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

}  // namespace espread::sim
