// Structured session tracing (observability layer).
//
// The protocol's core claim is dynamic — per-window feedback moves the
// Eq. 1 burst estimator, which reshapes permutations two windows later —
// but SessionResult only exposes per-window aggregates.  This layer records
// the event-level timeline underneath those aggregates: every packet
// departure and loss, retransmission, deadline drop, ACK, estimator move,
// window finalization and playout miss, stamped with the simulated clock
// and attributed to one of four actors (server, data channel, feedback
// channel, client).
//
// Design constraints:
//   * the disabled path must stay allocation-free and branch-cheap: every
//     instrumentation site guards on a raw `TraceSink*` being non-null, so
//     a session with tracing off pays one predictable branch per site and
//     never constructs a TraceEvent;
//   * recording must not perturb simulation determinism: sinks only
//     observe, they never feed back into the RNG or the event queue;
//   * export targets Chrome trace-event JSON (chrome://tracing, Perfetto)
//     with one track per actor, plus a CSV timeline via proto::report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace espread::obs {

/// What happened.  The `arg`/`v0`/`v1` fields of TraceEvent are
/// event-specific; the schema is documented per enumerator.
enum class EventType {
    kPacketSent,        ///< channel: seq = channel packet #, arg = wire bits
    kPacketLost,        ///< channel: seq = channel packet #, arg = wire bits
    kRetransmit,        ///< server: arg = frame index, v0 = attempt #
    kFrameDeadlineDrop, ///< server: arg = frame index (never sent)
    kAckSent,           ///< client: seq = ACK seq, window reported on
    kAckApplied,        ///< server: seq = ACK seq accepted (highest seen)
    kAckStale,          ///< server: seq = out-of-order ACK seq ignored
    kEstimatorUpdate,   ///< server: arg = observed burst, v0/v1 = old/new bound
    kWindowFinalized,   ///< client: arg = window CLF, v0 = window ALF
    kPlayoutMiss,       ///< client: arg = frame index that missed its slot
    kFrameComplete,     ///< client: arg = frame index (last fragment arrived)
    kCorruptRejected,   ///< channel: seq = channel packet #, corrupt header rejected by checksum
    kReordered,         ///< channel: seq = channel packet #, arg = extra delay (ns)
    kDupDropped,        ///< client: duplicate fragment discarded, arg = frame index
    kStaleDropped,      ///< client: packet for a finalized window discarded, arg = frame index
    kGovernorState,     ///< server: arg = new proto::GovernorState, v0 = old state, v1 = consecutive missed feedback windows
    kGovernorAckReject, ///< server: seq = ACK seq, arg = proto::AckRejectReason, v0 = ACK's window
    kGovernorClamp,     ///< server: arg = raw observation, v0 = clamped observation, v1 = bound before the update
    kSloHealth,         ///< fleet: window = epoch, seq = objective index, arg = new telemetry::SloHealth, v0/v1 = fast/slow burn rate
    kRepairSent,        ///< server: seq = packet seq, arg = window base, v0 = span, v1 = rank at send
    kFecRecovered,      ///< client: seq = recovered packet seq, arg = frame index, v0 = decode delay (ms), v1 = receiver rank
    kNackSent,          ///< client: seq = NACK seq, arg = missing-frame count, v0 = rank deficit, v1 = retry round
    kNackServed,        ///< server: seq = NACK seq, arg = retransmitted packets, v0 = repairs sent, v1 = retry round
    kRepairTimeout,     ///< server: feedback watchdog expired, arg = silent windows; repair plane reverts to the fixed credit schedule
    kRepairShed,        ///< server: repair job evicted under overload, seq = NACK seq, arg = its window
};

/// Which simulated component emitted the event (one trace track each).
enum class Actor {
    kServer,
    kDataChannel,
    kFeedbackChannel,
    kClient,
};

const char* event_name(EventType t) noexcept;
const char* actor_name(Actor a) noexcept;

/// One timeline entry.  Plain data; meaning of arg/v0/v1 depends on `type`
/// (see EventType).
struct TraceEvent {
    sim::SimTime time = 0;
    EventType type = EventType::kPacketSent;
    Actor actor = Actor::kServer;
    std::size_t window = 0;
    std::uint64_t seq = 0;
    std::int64_t arg = 0;
    double v0 = 0.0;
    double v1 = 0.0;
};

/// Receives trace events.  Implementations must not throw out of record()
/// and must not re-enter the simulation.
class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent& e) = 0;
};

/// Ring-buffer sink: keeps the most recent `capacity` events, counting how
/// many older ones were evicted.  Capacity is fixed at construction so a
/// long session cannot grow without bound.
class TraceRecorder final : public TraceSink {
public:
    /// Throws std::invalid_argument for capacity == 0.
    explicit TraceRecorder(std::size_t capacity = 1 << 16);

    void record(const TraceEvent& e) override;

    /// Retained events, oldest first (record order).
    std::vector<TraceEvent> events() const;

    std::size_t size() const noexcept { return count_; }
    std::size_t capacity() const noexcept { return ring_.size(); }
    /// Events overwritten after the ring filled.
    std::size_t evicted() const noexcept { return evicted_; }

private:
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  ///< next write slot
    std::size_t count_ = 0;
    std::size_t evicted_ = 0;
};

/// Renders events as Chrome trace-event JSON (the object form with a
/// "traceEvents" array), loadable in chrome://tracing and Perfetto.  Events
/// are sorted by simulated time (stable), emitted as instant events with
/// microsecond timestamps, one named track (tid) per actor.
std::string chrome_trace_json(std::vector<TraceEvent> events);

/// Convenience: chrome_trace_json to a file.  Throws std::runtime_error on
/// I/O failure.
void write_chrome_trace_file(const std::string& path,
                             std::vector<TraceEvent> events);

}  // namespace espread::obs
