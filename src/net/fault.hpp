// Simulated unreliable datagram channel with deterministic fault
// injection (paper §4.2 protocol setting).
//
// The paper's protocol runs over UDP: no retransmission below the
// application, packets serialized onto a fixed-bandwidth link with fixed
// propagation delay, and per-packet loss drawn from the Gilbert model.
// In-order Gilbert drops are only the start of the threat model: real
// datagram paths also reorder, duplicate, corrupt and jitter packets, and
// outages kill whole spans of traffic.  FaultChannel<Msg> carries both: the
// link and its loss process, plus those pathologies drawn from their own
// seeded sim::Rng, so an impaired run is a pure function of (config, seed)
// — the same determinism contract the Monte-Carlo runner guarantees across
// thread counts.  A channel is unidirectional; a bidirectional session
// composes two (data and feedback) over one EventQueue.
//
// Zero-cost-off contract: with no impairments installed, or an inactive
// ImpairmentConfig (all rates zero, no blackout), send() makes no fault
// draw and adds no delay or trace event, so every unimpaired simulation is
// byte-identical to one that never knew about faults.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/gilbert.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

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

/// Scripted total outage: every packet whose link departure falls in
/// [from, to) is force-dropped.  "Kill the ACK path for windows 3–5" is a
/// Blackout on the feedback channel spanning those windows' ACK departures
/// (see proto::SessionConfig::blackout_feedback_windows).
struct Blackout {
    sim::SimTime from = 0;
    sim::SimTime to = 0;  ///< half-open interval end
};

/// What to inject and how hard.  Default-constructed = inactive.
struct ImpairmentConfig {
    /// Probability a packet is displaced past later sends.  The displaced
    /// packet's arrival is delayed by d serialization slots of its own
    /// size, d uniform in [1, kReorderMaxDisplacement]; with back-to-back
    /// equal-size packets the positional displacement is bounded by
    /// kReorderMaxDisplacement in both directions.
    double reorder_rate = 0.0;
    static constexpr std::size_t kReorderMaxDisplacement = 4;

    /// Probability a delivered packet is duplicated; the copy arrives
    /// kDuplicateDelay after the original (never before it).
    double duplicate_rate = 0.0;
    static constexpr sim::SimTime kDuplicateDelay = sim::from_millis(1.0);

    /// Probability a packet's header is corrupted: up to
    /// corrupt_max_bit_flips random bit flips applied to the record's wire
    /// encoding.  A flip the codec checksum catches rejects the packet
    /// (ChannelStats::corrupt_rejected); an undetected one delivers the
    /// corrupted record.  Channels without a corrupter reject outright.
    double corrupt_rate = 0.0;
    std::size_t corrupt_max_bit_flips = 3;

    /// Probability of extra delivery delay, uniform in [0, jitter_max].
    double jitter_rate = 0.0;
    sim::SimTime jitter_max = sim::from_millis(5.0);

    std::vector<Blackout> blackouts;

    /// True if any impairment can fire.  An inactive config leaves the
    /// channel unimpaired (the zero-cost-off contract).
    bool active() const noexcept;

    /// Throws std::invalid_argument on out-of-range rates or malformed
    /// blackouts.
    void validate() const;
};

/// Unidirectional lossy FIFO link carrying messages of type Msg, with
/// optional deterministic impairments.
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
class FaultChannel {
public:
    /// Delivery callback.  It receives the payload as an rvalue, so a
    /// receiver taking `Msg&&` costs no move; one taking `Msg` by value
    /// still binds.
    using Receiver = std::function<void(Msg&&)>;
    /// Applies a corruption to one message (e.g. encode -> flip bits ->
    /// decode through the wire codec).  Returns the corrupted message, or
    /// nullopt when the corruption is detected (checksum) and the packet
    /// must be rejected.
    using Corrupter = std::function<std::optional<Msg>(const Msg&, sim::Rng&)>;

    /// Throws std::invalid_argument for non-positive bandwidth or negative
    /// propagation delay.
    FaultChannel(sim::EventQueue& queue, LinkConfig link, GilbertParams loss,
                 sim::Rng link_rng)
        : queue_(queue), link_(link), loss_(loss, std::move(link_rng)) {
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
    FaultChannel(const FaultChannel&) = delete;
    FaultChannel& operator=(const FaultChannel&) = delete;

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

    /// Installs the impairment plan.  `fault_rng` drives every impairment
    /// decision (independent of the link's loss process so enabling faults
    /// does not shift the Gilbert stream).  Validates `cfg`; an inactive
    /// config leaves the channel unimpaired.
    void set_impairments(ImpairmentConfig cfg, sim::Rng fault_rng,
                         Corrupter corrupter = nullptr) {
        cfg.validate();
        cfg_ = std::move(cfg);
        rng_ = fault_rng;
        corrupter_ = std::move(corrupter);
        active_ = cfg_.active();
    }

    bool impaired() const noexcept { return active_; }

    /// Enqueues one message of `size_bits` onto the link.  Returns true if
    /// the message survived the loss process (it will be delivered after
    /// serialization + propagation).  The return value is the simulation
    /// harness's oracle for loss accounting and the in-window critical
    /// retransmission; protocol endpoints must not base per-packet
    /// decisions on it ahead of the time a real NACK could have arrived.
    /// Below this entry point the payload is only ever moved: into the
    /// staging slot (see stage()), into the displaced pool when a fault
    /// puts it ahead of an earlier send, and along the ring when it
    /// widens.  An in-order payload is delivered from its slot.
    bool send(Msg msg, std::size_t size_bits) {
        stage() = std::move(msg);
        return send_staged(size_bits);
    }

    /// Sends one message on provisioned side-band headroom: identical loss
    /// and impairment draws, stats, trace, and delivery timing to send(),
    /// except the message never occupies the link, so in-band traffic is
    /// not queued behind it.  Models repair streams whose bandwidth is
    /// budgeted as overhead on top of the media rate (DESIGN.md §12);
    /// callers account the extra bits themselves.
    bool send_sideband(Msg msg, std::size_t size_bits) {
        stage() = std::move(msg);
        return send_sideband_staged(size_bits);
    }

    /// The slot the next send_staged() or send_sideband_staged() sends:
    /// a sender that builds its message here saves moving it into the
    /// channel.  The slot holds whatever an earlier message left in it,
    /// so the sender overwrites it whole, and sends nothing else on this
    /// channel before the staged send.
    Msg& stage() {
        if (in_order_.full()) [[unlikely]] {
            std::vector<Pending> old = in_order_.widen();
            if (popped_storage_.empty()) popped_storage_ = std::move(old);
        }
        return in_order_.next_slot().msg;
    }

    /// send() and send_sideband() for the message built in stage().
    bool send_staged(std::size_t size_bits) {
        return send_impl(size_bits, /*occupy_link=*/true);
    }
    bool send_sideband_staged(std::size_t size_bits) {
        return send_impl(size_bits, /*occupy_link=*/false);
    }

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
    /// What the impairment draw decided for one send.  The default is a
    /// clean send.  Precedence: force_drop > loss model > corrupt_rejected
    /// > delivery.
    struct Faults {
        bool force_drop = false;        ///< scripted loss (blackout)
        bool corrupt_rejected = false;  ///< corruption detected by the codec: reject
        bool reordered = false;         ///< extra_delay displaces past later sends
        bool duplicate = false;         ///< deliver a second copy of the message
        sim::SimTime extra_delay = 0;   ///< jitter/reorder delay added to the arrival
    };

    /// Sends the staged message.  It is filed where it was built when it
    /// arrives in order, so only a displaced one moves.
    bool send_impl(std::size_t size_bits, bool occupy_link) {
        Msg& msg = in_order_.next_slot().msg;
        const sim::SimTime tx_time = cached_tx_time(size_bits);
        const sim::SimTime depart = std::max(queue_.now(), link_free_);
        const Faults faults = active_ ? draw_faults(msg, size_bits, depart) : Faults{};
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
            // duplicated; the draw is ignored for them.  The copy is filed
            // after the original; it arrives later, so no two deliveries
            // change order.
            if constexpr (std::is_copy_constructible_v<Msg>) {
                ++stats_.duplicated;
                Msg copy(msg);
                file_staged(arrival);
                stage() = std::move(copy);
                file_staged(arrival + ImpairmentConfig::kDuplicateDelay);
                return true;
            }
        }
        file_staged(arrival);
        return true;
    }

    /// Rolls the impairment dice for one outgoing message departing at
    /// `depart`, possibly mutating the payload in place (corruption with a
    /// corrupter hook).
    Faults draw_faults(Msg& msg, std::size_t size_bits, sim::SimTime depart) {
        Faults f;
        f.force_drop = blacked_out(depart);
        if (f.force_drop) return f;
        // Draw order is fixed (corrupt, duplicate, reorder, jitter) and
        // each draw is gated on its own rate, so a mix's realization is a
        // deterministic function of (config, seed).
        if (cfg_.corrupt_rate > 0.0 && rng_.bernoulli(cfg_.corrupt_rate)) {
            std::optional<Msg> mutated;
            if (corrupter_) mutated = corrupter_(msg, rng_);
            if (!mutated.has_value()) {
                f.corrupt_rejected = true;
                return f;
            }
            msg = std::move(*mutated);
        }
        if (cfg_.duplicate_rate > 0.0 && rng_.bernoulli(cfg_.duplicate_rate)) {
            f.duplicate = true;
        }
        if (cfg_.reorder_rate > 0.0 && rng_.bernoulli(cfg_.reorder_rate)) {
            const std::uint64_t d =
                rng_.uniform_int(1, ImpairmentConfig::kReorderMaxDisplacement);
            f.reordered = true;
            f.extra_delay += static_cast<sim::SimTime>(d) * serialization_time(size_bits);
        }
        if (cfg_.jitter_rate > 0.0 && cfg_.jitter_max > 0 &&
            rng_.bernoulli(cfg_.jitter_rate)) {
            f.extra_delay += static_cast<sim::SimTime>(
                rng_.uniform_int(0, static_cast<std::uint64_t>(cfg_.jitter_max)));
        }
        return f;
    }

    bool blacked_out(sim::SimTime depart) const noexcept {
        for (const Blackout& b : cfg_.blackouts) {
            if (depart >= b.from && depart < b.to) return true;
        }
        return false;
    }

    /// serialization_time() through a two-entry, most-recent-first cache.
    /// A frame's fragments are full-size but for the last, so sends
    /// alternate between two sizes and the division runs about once a
    /// frame instead of once a packet.
    sim::SimTime cached_tx_time(std::size_t size_bits) noexcept {
        if (size_bits == tx_cache_[0].bits) return tx_cache_[0].time;
        // The result comes from a register, not from reloading the entry
        // just swapped to the front.
        const TxTime hit = size_bits == tx_cache_[1].bits
                               ? tx_cache_[1]
                               : TxTime{size_bits, serialization_time(size_bits)};
        tx_cache_[1] = tx_cache_[0];
        tx_cache_[0] = hit;
        return hit.time;
    }

    /// One scheduled delivery under the key schedule_at would give it.
    struct Pending { sim::SimTime when; std::uint64_t seq; Msg msg; };
    /// A displaced delivery's key; its payload waits in parked_[slot].
    struct Parked { sim::SimTime when; std::uint64_t seq; std::size_t slot; };

    /// Entries sorted by (when, seq) in a ring of power-of-two size: at(i)
    /// is slots[(head + i) & mask], i < size.  Popping the front frees its
    /// slot without moving the others, and the entries never fill the
    /// last free slot: the one just popped stays intact, so a delivery can
    /// read its payload in place while its receiver sends again.
    template <typename T>
    struct Ring {
        std::vector<T> slots;
        /// slots.size() - 1, kept: sizeof(T) is no power of two, so
        /// computing it per access costs a multiply on the address path.
        std::size_t mask = 0;
        std::size_t head = 0;
        std::size_t size = 0;

        T& at(std::size_t i) noexcept { return slots[(head + i) & mask]; }
        /// Whether an entry at `when` files behind every one here.
        bool appends(sim::SimTime when) noexcept {
            return size == 0 || at(size - 1).when <= when;
        }
        /// Whether one more entry would fill the last free slot.
        bool full() const noexcept { return size + 1 >= slots.size(); }
        /// The slot behind the last entry, which push() files (in a ring
        /// that is not full()).
        T& next_slot() noexcept { return at(size); }
        /// Files next_slot() (for an entry that appends()).
        void push() noexcept { ++size; }
        /// Files an entry at `when` in order and returns its slot: the
        /// later ones shift up by one.
        T& insert(sim::SimTime when) {
            if (full()) widen();
            std::size_t pos = size;
            while (pos > 0 && at(pos - 1).when > when) --pos;
            for (std::size_t i = size; i > pos; --i) at(i) = std::move(at(i - 1));
            ++size;
            return at(pos);
        }
        void pop_front() noexcept {
            head = (head + 1) & mask;
            --size;
        }
        /// Doubles the ring (at least 16 slots), earliest entry first, and
        /// returns the storage it replaced.
        std::vector<T> widen() {
            std::vector<T> wider(std::max<std::size_t>(16, 2 * slots.size()));
            for (std::size_t i = 0; i < size; ++i) wider[i] = std::move(at(i));
            slots.swap(wider);
            mask = slots.size() - 1;
            head = 0;
            return wider;
        }
    };

    /// Files the staged message for delivery at `when` under the queue's
    /// next stamp.  An arrival no earlier than the last in-order one stays
    /// in its slot, which joins in_order_.  One that a fault, or a shorter
    /// packet overtaking a side-band one, puts ahead of it parks its
    /// payload and files only its key in displaced_: a NACK's side-band
    /// burst leaves many equal arrivals there for its shorter last
    /// fragments to pass, and shifting keys beats shifting payloads.  The
    /// head is the earlier lane front.
    void file_staged(sim::SimTime when) {
        when = std::max(when, queue_.now());
        Pending& p = in_order_.next_slot();
        if (in_order_.appends(when)) [[likely]] {
            p.when = when;
            p.seq = queue_.stamp();
            in_order_.push();
        } else {
            park(when, std::move(p.msg));
        }
        peak_pending_ = std::max(peak_pending_, in_order_.size + displaced_.size);
        arm();
    }

    /// Files a displaced delivery (out of line: the in-order path is the
    /// one every packet takes).
    [[gnu::noinline]] void park(sim::SimTime when, Msg&& msg) {
        Parked& k = displaced_.insert(when);
        k.when = when;
        k.seq = queue_.stamp();
        if (free_parked_.empty()) {
            k.slot = parked_.size();
            parked_.push_back(std::move(msg));
        } else {
            k.slot = free_parked_.back();
            free_parked_.pop_back();
            parked_[k.slot] = std::move(msg);
        }
    }

    /// Shows the queue the earliest pending delivery, if any, and notes
    /// its lane for deliver_head.
    void arm() noexcept {
        head_displaced_ = false;
        if (displaced_.size != 0) [[unlikely]] {
            const Parked& d = displaced_.at(0);
            head_displaced_ = in_order_.size == 0 || d.when < in_order_.at(0).when ||
                              (d.when == in_order_.at(0).when && d.seq < in_order_.at(0).seq);
            if (head_displaced_) {
                return queue_.arm(feed_, d.when, d.seq, in_order_.size + displaced_.size);
            }
        } else if (in_order_.size == 0) {
            return queue_.disarm(feed_);
        }
        const Pending& p = in_order_.at(0);
        queue_.arm(feed_, p.when, p.seq, in_order_.size + displaced_.size);
    }

    /// Pops the earliest delivery and re-arms the feed, then hands the
    /// payload to the receiver (which may send on this channel again).
    /// An in-order payload is handed over in its popped slot, which no
    /// send touches until a later delivery frees another (Ring); the slot
    /// keeps what the receiver leaves of it until reused.
    void deliver_head() {
        if (head_displaced_) [[unlikely]] return deliver_displaced();
        if (!popped_storage_.empty()) [[unlikely]] popped_storage_ = std::vector<Pending>();
        Msg& msg = in_order_.at(0).msg;
        in_order_.pop_front();
        arm();
        ++stats_.delivered;
        if (receiver_) receiver_(std::move(msg));
    }

    /// deliver_head for displaced_'s front: parked_ may grow while the
    /// receiver runs, so the payload moves out first.
    [[gnu::noinline]] void deliver_displaced() {
        const std::size_t slot = displaced_.at(0).slot;
        displaced_.pop_front();
        free_parked_.push_back(slot);
        Msg msg = std::move(parked_[slot]);
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
    /// Pending deliveries: the two lanes together, merged by (when, seq).
    Ring<Pending> in_order_;
    /// The in_order_ storage that stage()'s first widen since the last
    /// delivery began replaced: the slot that delivery popped lives there.
    std::vector<Pending> popped_storage_;
    Ring<Parked> displaced_;
    std::vector<Msg> parked_;  ///< displaced payloads, by Parked::slot
    std::vector<std::size_t> free_parked_;
    bool head_displaced_ = false;  ///< the earliest is displaced_'s front
    std::size_t peak_pending_ = 0;
    std::size_t feed_ = 0;  ///< this channel's feed in queue_
    obs::TraceSink* trace_ = nullptr;
    obs::Actor trace_actor_ = obs::Actor::kDataChannel;
    ImpairmentConfig cfg_;
    sim::Rng rng_{0};
    Corrupter corrupter_;
    bool active_ = false;
};

}  // namespace espread::net
