// Simulated unreliable datagram channel (paper §4.2 protocol setting).
//
// The paper's protocol runs over UDP: no retransmission below the
// application, packets serialized onto a fixed-bandwidth link with fixed
// propagation delay, and per-packet loss drawn from the Gilbert model.
// Channel<Msg> is unidirectional; a bidirectional session composes two
// channels (data and feedback) over one EventQueue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/gilbert.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace espread::net {

/// Physical link parameters.
struct LinkConfig {
    double bandwidth_bps = 1.2e6;          ///< paper default 1.2 Mb/s
    sim::SimTime propagation_delay = sim::from_millis(11.5);  ///< half of 23 ms RTT
};

/// Delivery accounting.  Reconciliation invariant once the event queue has
/// drained: delivered + dropped + corrupt_rejected == sent + duplicated
/// (every send ends as exactly one delivery, loss, or corrupt rejection,
/// and every duplicate adds one extra delivery).  Side-band sends
/// (send_sideband) are included in every counter — `sent`, `bits_sent`,
/// the loss/corruption/duplication outcomes and `loss_runs` — so the
/// invariant covers them too; `sideband_sent`/`sideband_bits` break out
/// their share so repair-traffic budgets are auditable against it.
struct ChannelStats {
    std::size_t sent = 0;
    std::size_t delivered = 0;  ///< receiver callbacks fired (incl. duplicate copies)
    std::size_t dropped = 0;    ///< loss-model drops + scripted (forced) drops
    std::size_t bits_sent = 0;
    std::size_t duplicated = 0;        ///< extra copies created by fault injection
    std::size_t corrupt_rejected = 0;  ///< corrupted headers the codec rejected
    std::size_t reordered = 0;         ///< packets displaced past later sends
    std::size_t forced_dropped = 0;    ///< scripted drops (subset of `dropped`)
    std::size_t sideband_sent = 0;     ///< send_sideband calls (subset of `sent`)
    std::size_t sideband_bits = 0;     ///< their bits (subset of `bits_sent`)
    /// Lengths of maximal runs of consecutive dropped packets (send order).
    /// The max alone hides the burst distribution the Gilbert model is
    /// calibrated to; the histogram exposes it.  Its exact sum() equals
    /// `dropped`.
    obs::Histogram loss_runs;
};

/// Per-send fault directives, computed by a FaultChannel wrapper
/// (net/fault.hpp).  The default-constructed value is a no-op: the plain
/// send(msg, bits) path behaves exactly as if this struct did not exist.
/// Precedence: force_drop > loss model > corrupt_rejected > delivery.
struct SendFaults {
    bool force_drop = false;        ///< scripted loss (blackout)
    bool corrupt_rejected = false;  ///< corruption detected by the codec: reject
    bool reordered = false;         ///< extra_delay displaces past later sends
    bool duplicate = false;         ///< deliver a second copy of the message
    sim::SimTime extra_delay = 0;   ///< jitter/reorder delay added to the arrival
    sim::SimTime duplicate_delay = 0;  ///< copy's delay past the original arrival
};

/// Unidirectional lossy FIFO link carrying messages of type Msg.
///
/// Serialization: a message of s bits occupies the link for s / bandwidth
/// seconds; messages queue behind one another (drop-tail routers in the
/// paper's motivation — we model the loss with the Gilbert chain rather
/// than an explicit queue, as the paper's own simulation does).  Delivery
/// happens propagation_delay after serialization completes.  Loss is
/// decided per packet by the Gilbert chain, in send order.  Msg must be
/// default-constructible and move-assignable: pending deliveries live in
/// reused slots.
template <typename Msg>
class Channel {
public:
    /// Delivery callback.  It receives the payload as an rvalue, so a
    /// receiver taking `Msg&&` costs no move; one taking `Msg` by value
    /// still binds.
    using Receiver = std::function<void(Msg&&)>;

    /// Throws std::invalid_argument for non-positive bandwidth or negative
    /// propagation delay.
    Channel(sim::EventQueue& queue, LinkConfig link, GilbertParams loss,
            sim::Rng rng)
        : queue_(queue), link_(link), loss_(loss, std::move(rng)) {
        if (link_.bandwidth_bps <= 0.0) {
            throw std::invalid_argument("Channel: bandwidth must be positive");
        }
        if (link_.propagation_delay < 0) {
            throw std::invalid_argument("Channel: negative propagation delay");
        }
        feed_ = queue_.add_feed([this] { deliver_head(); });
    }

    /// The queue's feed holds `this`, so a channel stays where it was
    /// built and outlives any delivery its queue still runs.
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Registers the delivery callback (invoked at simulated arrival time).
    void set_receiver(Receiver r) { receiver_ = std::move(r); }

    /// Attaches a trace sink (non-owning; nullptr detaches).  Every send
    /// then emits a PacketSent or PacketLost event on `actor`'s track,
    /// stamped with the packet's link departure time.  With no sink the
    /// only cost is one null-pointer branch per send.
    void set_trace(obs::TraceSink* sink, obs::Actor actor) noexcept {
        trace_ = sink;
        trace_actor_ = actor;
    }

    /// Enqueues one message of `size_bits` onto the link.  Returns true if
    /// the message survived the loss process (it will be delivered after
    /// serialization + propagation).  The return value is the simulation
    /// harness's oracle for loss accounting and the in-window critical
    /// retransmission; protocol endpoints must not base per-packet decisions on it ahead of
    /// the time a real NACK could have arrived.
    bool send(Msg msg, std::size_t size_bits) {
        return send(std::move(msg), size_bits, SendFaults{});
    }

    /// Sends one message under fault directives (see SendFaults).  The
    /// default directive reproduces the plain send() exactly — same loss
    /// draws, same arrival times, same trace events — so an inactive fault
    /// layer is observationally free.  Below the by-value entry points
    /// the payload is only ever moved: into the pending ring, along it
    /// when an arrival is displaced or the ring widens, and out.
    bool send(Msg&& msg, std::size_t size_bits, const SendFaults& faults) {
        return send_impl(std::move(msg), size_bits, faults,
                         /*occupy_link=*/true);
    }

    /// Sends one message on provisioned side-band headroom: identical loss
    /// draw, stats, trace, and delivery timing to send(), except the
    /// message never occupies the link, so in-band traffic is not queued
    /// behind it.  Models repair streams whose bandwidth is budgeted as
    /// overhead on top of the media rate (DESIGN.md §12); callers account
    /// the extra bits themselves.
    bool send_sideband(Msg msg, std::size_t size_bits) {
        return send_sideband(std::move(msg), size_bits, SendFaults{});
    }

    bool send_sideband(Msg&& msg, std::size_t size_bits,
                       const SendFaults& faults) {
        return send_impl(std::move(msg), size_bits, faults,
                         /*occupy_link=*/false);
    }

  private:
    bool send_impl(Msg&& msg, std::size_t size_bits, const SendFaults& faults,
                   bool occupy_link) {
        const sim::SimTime tx_time = cached_tx_time(size_bits);
        const sim::SimTime depart = std::max(queue_.now(), link_free_);
        if (occupy_link) {
            link_free_ = depart + tx_time;
        } else {
            ++stats_.sideband_sent;
            stats_.sideband_bits += size_bits;
        }
        ++stats_.sent;
        stats_.bits_sent += size_bits;
        // Scripted drops short-circuit the Gilbert draw: a blackout models
        // an outage on top of (not instead of) the stochastic loss process.
        if (faults.force_drop || loss_.drop_next()) {
            ++stats_.dropped;
            if (faults.force_drop) ++stats_.forced_dropped;
            ++loss_run_;
            trace(obs::EventType::kPacketLost, depart, size_bits);
            return false;
        }
        if (loss_run_ > 0) {
            stats_.loss_runs.record(loss_run_);
            loss_run_ = 0;
        }
        if (faults.corrupt_rejected) {
            // The packet occupied the link but its header fails the codec
            // checksum at the receiver's door: never delivered.
            ++stats_.corrupt_rejected;
            trace(obs::EventType::kCorruptRejected, depart, size_bits);
            return false;
        }
        trace(obs::EventType::kPacketSent, depart, size_bits);
        if (faults.reordered) {
            ++stats_.reordered;
            trace(obs::EventType::kReordered, depart,
                  static_cast<std::size_t>(faults.extra_delay));
        }
        const sim::SimTime arrival =
            depart + tx_time + link_.propagation_delay + faults.extra_delay;
        if (faults.duplicate) {
            // Duplication happens in the network, not on the link: the copy
            // costs no serialization time.  Move-only payloads cannot be
            // duplicated; the directive is ignored for them.
            if constexpr (std::is_copy_constructible_v<Msg>) {
                ++stats_.duplicated;
                schedule_delivery(arrival + faults.duplicate_delay, Msg(msg));
            }
        }
        schedule_delivery(arrival, std::move(msg));
        return true;
    }

  public:
    /// Earliest time a new message could start serializing.
    sim::SimTime next_free_time() const noexcept {
        return std::max(queue_.now(), link_free_);
    }

    /// Keeps the link idle until `t` (the sender deliberately waits, e.g.
    /// for a NACK before retransmitting).  No effect if t is in the past.
    void stall_until(sim::SimTime t) noexcept {
        link_free_ = std::max(link_free_, t);
    }

    /// Time the link needs to serialize `size_bits`.
    sim::SimTime serialization_time(std::size_t size_bits) const noexcept {
        return sim::from_seconds(static_cast<double>(size_bits) /
                                 link_.bandwidth_bps);
    }

    /// Snapshot of the delivery counters.  A loss run still open at call
    /// time (the most recent packet was dropped) is counted as complete, so
    /// loss_runs.sum() always equals `dropped`.
    ChannelStats stats() const {
        ChannelStats s = stats_;
        if (loss_run_ > 0) s.loss_runs.record(loss_run_);
        return s;
    }
    /// The peak number of deliveries pending at once; it stops growing
    /// once traffic reaches a steady state.
    std::size_t in_flight_slots() const noexcept { return peak_pending_; }

private:
    /// serialization_time() through a two-entry, most-recent-first cache.
    /// A frame's fragments are full-size but for the last, so sends
    /// alternate between two sizes and the division runs about once a
    /// frame instead of once a packet.
    sim::SimTime cached_tx_time(std::size_t size_bits) noexcept {
        if (size_bits == tx_cache_[0].bits) return tx_cache_[0].time;
        if (size_bits != tx_cache_[1].bits) {
            tx_cache_[1] = TxTime{size_bits, serialization_time(size_bits)};
        }
        std::swap(tx_cache_[0], tx_cache_[1]);
        return tx_cache_[0].time;
    }

    /// One scheduled delivery under the key schedule_at would give it.
    struct Pending { sim::SimTime when; std::uint64_t seq; Msg msg; };

    /// The i-th earliest pending delivery.
    Pending& slot(std::size_t i) noexcept {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    /// Files `msg` under the queue's next stamp.  An in-order arrival
    /// is written into the free slot behind the last one; one displaced
    /// by a fault (or a side-band packet that a shorter in-band one
    /// overtakes) goes in behind, shifting the later ones up.
    void schedule_delivery(sim::SimTime when, Msg&& msg) {
        when = std::max(when, queue_.now());
        if (size_ == ring_.size()) widen();
        std::size_t at = size_;
        while (at > 0 && slot(at - 1).when > when) --at;
        for (std::size_t i = size_; i > at; --i) slot(i) = std::move(slot(i - 1));
        Pending& p = slot(at);
        p.when = when;
        p.seq = queue_.stamp();
        p.msg = std::move(msg);
        ++size_;
        peak_pending_ = std::max(peak_pending_, size_);
        arm();
    }

    /// Doubles the ring (at least 16 slots), earliest delivery first.
    void widen() {
        std::vector<Pending> wider(std::max<std::size_t>(16, 2 * ring_.size()));
        for (std::size_t i = 0; i < size_; ++i) wider[i] = std::move(slot(i));
        ring_.swap(wider);
        head_ = 0;
    }

    /// Shows the queue the earliest pending delivery, if any.
    void arm() noexcept {
        if (size_ == 0) return queue_.disarm(feed_);
        const Pending& p = slot(0);
        queue_.arm(feed_, p.when, p.seq, size_);
    }

    /// Pops the earliest delivery and re-arms the feed, then hands the
    /// payload to the receiver (which may send on this channel again).
    /// The delivered slot keeps the moved-from payload until reused.
    void deliver_head() {
        Msg msg = std::move(slot(0).msg);
        head_ = (head_ + 1) & (ring_.size() - 1);
        --size_;
        arm();
        ++stats_.delivered;
        if (receiver_) receiver_(std::move(msg));
    }

    void trace(obs::EventType type, sim::SimTime depart, std::size_t arg) {
        if (!trace_) return;
        obs::TraceEvent e;
        e.time = depart;
        e.type = type;
        e.actor = trace_actor_;
        e.seq = stats_.sent - 1;
        e.arg = static_cast<std::int64_t>(arg);
        trace_->record(e);
    }

    sim::EventQueue& queue_;
    LinkConfig link_;
    GilbertLoss loss_;
    Receiver receiver_;
    sim::SimTime link_free_ = 0;
    struct TxTime {
        std::size_t bits = 0;
        sim::SimTime time = 0;  ///< serialization_time(0) is 0
    };
    TxTime tx_cache_[2];
    ChannelStats stats_;
    std::size_t loss_run_ = 0;  ///< consecutive drops ending at the last send
    /// Pending deliveries sorted by (when, seq) in a ring of power-of-two
    /// size: slot(i) is ring_[(head_ + i) & (ring_.size() - 1)], i < size_.
    /// A delivery frees its slot without moving the others.
    std::vector<Pending> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t peak_pending_ = 0;
    std::size_t feed_ = 0;  ///< this channel's feed in queue_
    obs::TraceSink* trace_ = nullptr;
    obs::Actor trace_actor_ = obs::Actor::kDataChannel;
};

}  // namespace espread::net
