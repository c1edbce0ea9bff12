#include "protocol/session.hpp"

#include "protocol/playout.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "core/control.hpp"
#include "fec/rlc.hpp"
#include "media/trace.hpp"
#include "media/trace_io.hpp"
#include "net/fault.hpp"
#include "net/fragment.hpp"
#include "protocol/codec.hpp"
#include "protocol/governor.hpp"
#include "protocol/recovery.hpp"
#include "sim/contracts.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace espread::proto {

namespace {

/// Fixed per-packet header cost (sequence numbers, window/layer/fragment
/// coordinates) charged on the wire in addition to payload bits.
constexpr std::size_t kPacketHeaderBits = 256;

/// Extra time after a window's playout deadline before the client closes
/// the window (covers propagation of the final retransmission).
constexpr sim::SimTime kFinalizeSlack = sim::from_millis(2.0);

/// Bits a frame of `frame_bits` puts on the wire as `packets` packets: its
/// fragments (a zero-size frame still sends 1 bit) plus a header each.
std::size_t frame_wire_bits(std::size_t frame_bits, std::size_t packets) {
    return std::max<std::size_t>(frame_bits, 1) + packets * kPacketHeaderBits;
}

using DataMsg = std::variant<DataPacket, WindowTrailer, RepairPacket>;
using FeedbackMsg = std::variant<Feedback, NackRequest>;

/// `ch`'s staging slot (net::FaultChannel::stage) as a T, for the caller
/// to overwrite whole.
template <typename T, typename Msg>
T& stage_as(net::FaultChannel<Msg>& ch) {
    Msg& m = ch.stage();
    if (T* t = std::get_if<T>(&m)) return *t;
    return m.template emplace<T>();
}

/// Applies `1..max_flips` random bit flips to an encoded record.
void flip_bits(std::vector<std::uint8_t>& bytes, sim::Rng& rng,
               std::size_t max_flips) {
    const std::uint64_t flips =
        rng.uniform_int(1, static_cast<std::uint64_t>(max_flips));
    for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t byte = rng.uniform_int(0, bytes.size() - 1);
        bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
}

/// Corruption surfaced through the real wire codec: encode the record, flip
/// bits, decode.  The codec checksum catches almost all flips (nullopt ->
/// the channel counts a corrupt_rejected drop); the rare undetected one
/// delivers a corrupted-but-plausible record, which is exactly the hostile
/// input the hardened receiver/estimator must survive.
std::optional<DataMsg> corrupt_data_msg(const DataMsg& m, sim::Rng& rng,
                                        std::size_t max_flips) {
    std::vector<std::uint8_t> bytes;
    if (const DataPacket* p = std::get_if<DataPacket>(&m)) {
        bytes = encode(*p);
    } else if (const WindowTrailer* t = std::get_if<WindowTrailer>(&m)) {
        bytes = encode(*t);
    } else {
        bytes = encode(std::get<RepairPacket>(m));
    }
    flip_bits(bytes, rng, max_flips);
    if (auto p = decode_data(bytes)) return DataMsg{*p};
    if (auto t = decode_trailer(bytes)) return DataMsg{*t};
    if (auto r = decode_repair(bytes)) return DataMsg{*r};
    return std::nullopt;
}

/// Feedback-path corruption through the codec.  `allow_nack` gates the
/// NackRequest decode attempt on the recovery plane being enabled, so a
/// recovery-off session can never turn an undetected flip into a NACK it
/// would otherwise have rejected (the zero-cost-off contract).
std::optional<FeedbackMsg> corrupt_feedback_msg(const FeedbackMsg& m,
                                                sim::Rng& rng,
                                                std::size_t max_flips,
                                                bool allow_nack) {
    std::vector<std::uint8_t> bytes;
    if (const Feedback* f = std::get_if<Feedback>(&m)) {
        bytes = encode(*f);
    } else {
        bytes = encode(std::get<NackRequest>(m));
    }
    flip_bits(bytes, rng, max_flips);
    if (auto f = decode_feedback(bytes)) return FeedbackMsg{*f};
    if (allow_nack) {
        if (auto n = decode_nack(bytes)) return FeedbackMsg{*n};
    }
    return std::nullopt;
}

/// Spare vectors for the per-window trailer and ACK messages.  A message
/// takes one when it is sent and its receiver gives it back on delivery,
/// so steady state reuses a few buffers instead of allocating per window;
/// a lost message frees its buffer and take() allocates a new one.
class VectorPool {
public:
    /// A vector holding `contents`, on recycled capacity when there is any.
    std::vector<std::size_t> take(const std::vector<std::size_t>& contents) {
        std::vector<std::size_t> v;
        if (!spare_.empty()) {
            v = std::move(spare_.back());
            spare_.pop_back();
        }
        v.assign(contents.begin(), contents.end());
        return v;
    }
    /// Returns a delivered message's vector.  Duplicated deliveries could
    /// give back more than was taken, so the pool keeps at most kCap.
    void give(std::vector<std::size_t>&& v) {
        if (spare_.size() < kCap) spare_.push_back(std::move(v));
    }

private:
    static constexpr std::size_t kCap = 8;
    std::vector<std::vector<std::size_t>> spare_;
};

}  // namespace

sim::RunningStats SessionResult::clf_stats() const {
    sim::RunningStats s;
    for (const WindowReport& w : windows) s.add(static_cast<double>(w.clf));
    return s;
}

sim::RunningStats SessionResult::playout_clf_stats() const {
    sim::RunningStats s;
    for (const std::size_t c : playout_window_clf) s.add(static_cast<double>(c));
    return s;
}

struct Session::Impl {
    explicit Impl(SessionConfig c)
        : cfg(std::move(c)),
          rng(cfg.seed),
          planner((cfg.validate(), cfg)),
          period(cfg.window_duration()),
          receiver(planner.window_ldus(), planner.layer_sizes(),
                   planner.prerequisites()),
          estimator(std::max<std::size_t>(planner.noncritical_size(), 1), cfg.alpha),
          data(queue, cfg.data_link, cfg.data_loss,
               rng.split(contracts::kSessionLaneDataChannel)),
          feedback(queue, cfg.feedback_link, cfg.feedback_loss,
                   rng.split(contracts::kSessionLaneFeedbackChannel)),
          playout(cfg.frame_rate(),
                  static_cast<sim::SimTime>(cfg.playout_startup_windows *
                                            static_cast<double>(period))) {
        if (cfg.stream.kind == StreamKind::kMpeg) {
            sim::Rng trace_rng = rng.split(contracts::kSessionLaneMediaTrace);
            mpeg.emplace(media::movie_stats(cfg.stream.movie), trace_rng.next_u64());
        } else if (cfg.stream.kind == StreamKind::kTraceFile) {
            load_trace_file();
        } else {
            const std::size_t total = cfg.num_windows * planner.window_ldus();
            if (cfg.stream.kind == StreamKind::kMjpeg) {
                sim::Rng trace_rng =
                    rng.split(contracts::kSessionLaneMediaTrace);
                pregen = media::mjpeg_trace(total, cfg.stream.mjpeg_mean_bits,
                                            trace_rng.next_u64());
            } else {
                pregen = media::audio_trace(total);
            }
        }

        if (cfg.data_impairment.active()) {
            const std::size_t flips = cfg.data_impairment.corrupt_max_bit_flips;
            data.set_impairments(cfg.data_impairment,
                                 rng.split(contracts::kSessionLaneDataImpairment),
                                 [flips](const DataMsg& m, sim::Rng& r) {
                                     return corrupt_data_msg(m, r, flips);
                                 });
        }
        if (cfg.feedback_impairment.active()) {
            const std::size_t flips =
                cfg.feedback_impairment.corrupt_max_bit_flips;
            const bool allow_nack = cfg.recovery.enabled;
            feedback.set_impairments(
                cfg.feedback_impairment,
                rng.split(contracts::kSessionLaneFeedbackImpairment),
                [flips, allow_nack](const FeedbackMsg& m, sim::Rng& r) {
                    return corrupt_feedback_msg(m, r, flips, allow_nack);
                });
        }

        if (cfg.governor.enabled) {
            governor.emplace(cfg.governor, estimator);
            if (cfg.trace != nullptr) governor->set_trace(cfg.trace);
        }

        receiver.set_window_limit(cfg.num_windows);
        playout.reserve(cfg.num_windows * planner.window_ldus());
        data.set_receiver([this](DataMsg&& m) {
            if (const DataPacket* p = std::get_if<DataPacket>(&m)) {
                receiver.on_packet(*p, queue.now());
                if (!p->retransmission) client_on_source(*p);
            } else if (WindowTrailer* t = std::get_if<WindowTrailer>(&m)) {
                receiver.on_trailer(*t);
                vectors.give(std::move(t->layer_sent));
            } else {
                client_on_repair(std::get<RepairPacket>(m));
            }
        });
        feedback.set_receiver([this](FeedbackMsg&& m) {
            if (Feedback* f = std::get_if<Feedback>(&m)) {
                on_feedback(*f);
                vectors.give(std::move(f->layer_max_burst));
                vectors.give(std::move(f->layer_lost));
            } else {
                on_nack(std::get<NackRequest>(m));
            }
        });

        if (cfg.trace != nullptr) {
            data.set_trace(cfg.trace, obs::Actor::kDataChannel);
            feedback.set_trace(cfg.trace, obs::Actor::kFeedbackChannel);
            receiver.set_trace(cfg.trace);
            // Translate Eq. 1 steps into EstimatorUpdate events.
            estimator.set_observer([this](std::size_t observed, double old_e,
                                          double new_e) {
                trace_estimator_update(
                    observed,
                    espread::BurstEstimator::bound_for(old_e, estimator.window()),
                    espread::BurstEstimator::bound_for(new_e, estimator.window()));
            });
        }

        if (cfg.rlc_active()) {
            // Coefficient seeds draw from their own RNG lane so enabling
            // the code never shifts the Gilbert loss, media, or
            // impairment processes; an uncoded session never takes this
            // split and stays byte-identical to pre-FEC builds.
            rlc_rng = rng.split(contracts::kSessionLaneRlcCoefficients);
            rlc_decoder.emplace(cfg.rlc.window_packets, /*symbol_bytes=*/0);
            rlc_sources.resize(std::bit_ceil(4 * cfg.rlc.window_packets));
            rlc_mask = rlc_sources.size() - 1;
        }

        if (cfg.recovery.enabled) {
            // NACK backoff jitter draws from its own RNG lane so enabling
            // the plane never shifts the loss, media, or impairment
            // processes; a recovery-off session never takes this split.
            nack_rng = rng.split(contracts::kSessionLaneNackJitter);
            repair.emplace(cfg.recovery, cfg.num_windows);
            sent_windows.resize(4);
        }
    }

    bool recovery_on() const noexcept { return cfg.recovery.enabled; }

    // ---- observability ----------------------------------------------------

    /// Emits one trace event if a sink is attached; sets the common fields.
    void trace_event(obs::EventType type, obs::Actor actor, sim::SimTime t,
                     std::size_t window, std::uint64_t seq = 0,
                     std::int64_t arg = 0, double v0 = 0.0, double v1 = 0.0) {
        if (cfg.trace == nullptr) return;
        obs::TraceEvent e;
        e.time = t;
        e.type = type;
        e.actor = actor;
        e.window = window;
        e.seq = seq;
        e.arg = arg;
        e.v0 = v0;
        e.v1 = v1;
        cfg.trace->record(e);
    }

    void trace_estimator_update(std::size_t observed, std::size_t old_bound,
                                std::size_t new_bound) {
        trace_event(obs::EventType::kEstimatorUpdate, obs::Actor::kServer,
                    queue.now(), feedback_window_,
                    /*seq=*/last_ack_seq,
                    /*arg=*/static_cast<std::int64_t>(observed),
                    /*v0=*/static_cast<double>(old_bound),
                    /*v1=*/static_cast<double>(new_bound));
    }

    /// Loads an external frame trace and tiles it (looping like a repeated
    /// clip) to cover the whole session, re-normalizing indices and GOP
    /// coordinates.  Partial trailing GOPs are dropped so the layering
    /// assumption (fixed pattern per window) holds.
    void load_trace_file() {
        const auto file_frames = media::read_trace_file(cfg.stream.trace_path);
        const media::GopPattern pattern = media::infer_gop_pattern(file_frames);
        const std::size_t usable =
            (file_frames.size() / pattern.size()) * pattern.size();
        if (usable == 0) {
            throw std::invalid_argument("Session: trace has no complete GOP");
        }
        const std::size_t total = cfg.num_windows * planner.window_ldus();
        pregen.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
            media::Frame f = file_frames[i % usable];
            f.index = i;
            f.gop = i / pattern.size();
            f.pos_in_gop = i % pattern.size();
            pregen.push_back(f);
        }
    }

    // ---- server side -----------------------------------------------------

    /// Frames of window k, local order, staged into frames_scratch (no
    /// allocation once the scratch reached window capacity).
    const std::vector<media::Frame>& take_frames(std::size_t k) {
        if (mpeg.has_value()) {
            mpeg->generate_into(cfg.gops_per_window, frames_scratch);
        } else {
            const std::size_t n = planner.window_ldus();
            const auto first =
                pregen.begin() + static_cast<std::ptrdiff_t>(k * n);
            frames_scratch.assign(first,
                                  first + static_cast<std::ptrdiff_t>(n));
        }
        return frames_scratch;
    }

    /// One data packet built in the data channel's staging slot, for a
    /// staged send: the frame's header `proto` with the packet's own fields
    /// set.  An in-order packet is delivered from where it is built.
    DataPacket& stage_packet(const DataPacket& proto, std::uint64_t seq,
                             std::size_t fragment, std::size_t size_bits,
                             bool retransmission) {
        DataPacket& p = stage_as<DataPacket>(data);
        p = proto;
        p.seq = seq;
        p.fragment = fragment;
        p.size_bits = size_bits;
        p.retransmission = retransmission;
        if (rlc_decoder.has_value() && !retransmission) {
            // The wire header's fec_group field carries the source index.
            p.fec_group = static_cast<std::size_t>(rlc_next & 0xFFFFFFFFu);
        }
        return p;
    }

    /// Sends one fragment of the frame `proto` describes; updates
    /// loss-burst accounting and, for a fresh source packet of a coded
    /// scheme, the RLC coding window.
    bool send_packet(const DataPacket& proto, std::size_t fragment,
                     std::size_t size_bits, bool retransmission,
                     WindowReport& rep) {
        const std::size_t wire_bits = size_bits + kPacketHeaderBits;
        const DataPacket& p =
            stage_packet(proto, next_seq++, fragment, size_bits, retransmission);
        if (!rlc_decoder.has_value() || retransmission) {
            const bool ok = data.send_staged(wire_bits);
            note_loss_run(ok, rep);
            return ok;
        }
        // A coded source: the coding window keeps the header it sends, for
        // re-injection on recovery (copied before a corruption can touch
        // the staged packet).
        if (rlc_next - rlc_lo == rlc_sources.size()) rlc_widen_sources();
        RlcSource& src = rlc_source(rlc_next);
        src.header = p;
        const bool ok = data.send_staged(wire_bits);
        note_loss_run(ok, rep);
        src.expect_arrival = data.next_free_time() + cfg.data_link.propagation_delay;
        ++rlc_next;
        rlc_on_source(rep);
        return ok;
    }

    /// Books one send on the data path into the window's run of
    /// consecutive packet losses.
    void note_loss_run(bool delivered, WindowReport& rep) {
        if (delivered) {
            packet_burst = 0;
            return;
        }
        ++packet_burst;
        rep.actual_packet_burst = std::max(rep.actual_packet_burst, packet_burst);
    }

    // ---- sliding-window RLC (DESIGN.md §12) --------------------------------

    /// A sent source packet, kept until the client decoder is past it.
    struct RlcSource {
        DataPacket header;            ///< for re-injection on recovery
        sim::SimTime expect_arrival;  ///< when a direct arrival would land
    };

    /// Spends the credit schedule for the source packet send_packet just
    /// booked into the coding window: overhead_num repairs accrue per
    /// overhead_den source packets.  The decoder lives at the client and
    /// is fed only by deliveries (client_on_source / client_on_repair).
    /// While the recovery plane is reactive (DESIGN.md §13) the credits
    /// bank instead — a NACK releases them as a targeted burst — and the
    /// schedule reverts to fixed emission while the plane is suspended or
    /// the feedback path is declared dead.
    void rlc_on_source(WindowReport& rep) {
        rlc_credit += cfg.rlc.overhead_num;
        while (rlc_credit >= cfg.rlc.overhead_den) {
            rlc_credit -= cfg.rlc.overhead_den;
            if (!repair.has_value() ||
                repair->mode() != RecoveryMode::kReactive) {
                rlc_send_repair(rep);
            } else {
                const std::size_t banked =
                    control::bank_credits(rlc_nack_credit, 1);
                if (banked == rlc_nack_credit) {
                    metrics.add("nack_credits_expired");
                }
                rlc_nack_credit = banked;
            }
        }
    }

    /// Emits one repair packet over the current elastic window on the side
    /// band; the client decodes it on delivery (client_on_repair).
    void rlc_send_repair(WindowReport& rep) {
        if (rlc_next == 0) return;  // no sources yet
        const std::uint64_t base =
            rlc_next > cfg.rlc.window_packets
                ? rlc_next - cfg.rlc.window_packets
                : 0;
        RepairPacket rp;
        rp.seq = next_seq++;
        rp.window = rep.window;
        rp.base = base;
        rp.count = static_cast<std::size_t>(rlc_next - base);
        rp.cseed = rlc_rng.next_u64();
        rp.size_bits = cfg.packet_bits;
        // Repairs ride the side band: they share the data path's loss
        // process and arrival timing but never queue media packets behind
        // them — the overhead ratio is the bandwidth cost, reported via
        // rlc_repair_bits_sent, not a deadline penalty on the stream.
        const std::size_t wire_bits = rp.size_bits + kPacketHeaderBits;
        stage_as<RepairPacket>(data) = rp;
        const bool ok = data.send_sideband_staged(wire_bits);
        metrics.add("rlc_repairs_sent");
        metrics.add("rlc_repair_bits_sent", wire_bits);
        note_loss_run(ok, rep);
        if (!ok) metrics.add("rlc_repairs_lost");
        trace_event(obs::EventType::kRepairSent, obs::Actor::kServer,
                    data.next_free_time(), rep.window, rp.seq,
                    static_cast<std::int64_t>(rp.base),
                    static_cast<double>(rp.count),
                    static_cast<double>(rlc_decoder->rank()));
    }

    /// Consumes the in-order delivery log, charging each delivered source
    /// its extra in-order latency versus an uncoded direct arrival, then
    /// releases the decoder's logs: every caller has read them by now.
    void rlc_drain_in_order() {
        for (const fec::RlcDecoder::InOrderEvent& e : rlc_decoder->in_order_log()) {
            rlc_frontier = e.index + 1;
            if (e.lost || e.index < rlc_lo || e.index >= rlc_next) {
                // The upper-bound check only fires for forged indices a
                // corrupted-but-decodable header smuggled past the client's
                // plausibility horizon.
                continue;
            }
            if (cfg.collect_metrics) {
                const RlcSource& src = rlc_source(e.index);
                const double delay_s =
                    std::max(0.0, e.at - sim::to_seconds(src.expect_arrival));
                metrics.hist("rlc_in_order_delay_ms").record(
                    static_cast<std::uint64_t>(delay_s * 1e3));
            }
        }
        rlc_decoder->release_logs();
    }

    /// Drops source-window state no longer reachable by the decoder or the
    /// in-order frontier.
    void rlc_prune_sources() {
        const std::uint64_t keep = std::min(rlc_decoder->base(), rlc_frontier);
        rlc_lo = std::max(rlc_lo, std::min(keep, rlc_next));
    }

    RlcSource& rlc_source(std::uint64_t index) noexcept {
        return rlc_sources[static_cast<std::size_t>(index) & rlc_mask];
    }

    /// Doubles the source ring.  The decoder base trails the highest
    /// delivered index by at most two windows, so only a run of some 2·W
    /// undelivered sources (a data outage) outgrows the initial 4·W: the
    /// client, which prunes the ring, then sees nothing while the server
    /// keeps sending.
    void rlc_widen_sources() {
        std::vector<RlcSource> wider(2 * rlc_sources.size());
        for (std::uint64_t i = rlc_lo; i < rlc_next; ++i) {
            wider[static_cast<std::size_t>(i) & (wider.size() - 1)] =
                rlc_source(i);
        }
        rlc_sources.swap(wider);
        rlc_mask = rlc_sources.size() - 1;
    }

    // ---- client-side RLC decoder --------------------------------------------

    /// Admits RLC coordinates ending at `end` (one past the highest index
    /// a wire header names).  The plausibility horizon is one coding
    /// window past the highest index witnessed so far, widened by the
    /// packets the data link could have carried since then: anything
    /// further can only be a forged or corrupted header.  A genuine jump
    /// (a data outage longer than the window) moves the decoder base up
    /// so the gap is declared lost instead of stranding the decoder.
    bool client_admit(std::uint64_t end) {
        const std::uint64_t w = cfg.rlc.window_packets;
        // The packets carried are never negative, so an end inside the
        // window passes without the division: almost every arrival does.
        if (end > client_hi + w &&
            static_cast<double>(end) >
                static_cast<double>(client_hi + w) +
                    sim::to_seconds(queue.now() - client_hi_at) *
                        cfg.data_link.bandwidth_bps /
                        static_cast<double>(kPacketHeaderBits)) {
            metrics.add("rlc_forged_rejected");
            return false;
        }
        if (end > client_hi) {
            client_hi = end;
            client_hi_at = queue.now();
        }
        // advance_base ignores a base it has passed: skip the call, and the
        // division its time stamp costs, for all but a jump.
        if (end > 2 * w && end - 2 * w > rlc_decoder->base()) {
            rlc_decoder->advance_base(end - 2 * w,
                                      sim::to_seconds(queue.now()));
        }
        return true;
    }

    /// Feeds one *delivered* source packet to the client-side decoder (the
    /// wire header's fec_group field carries the source index).  A source
    /// arriving after repairs that cover it can complete their equations,
    /// so it may decode other packets too.
    void client_on_source(const DataPacket& p) {
        if (!rlc_decoder.has_value()) return;
        const std::uint64_t index = static_cast<std::uint64_t>(p.fec_group);
        if (!client_admit(index + 1)) return;
        rlc_decoder->add_source(index, nullptr, 0,
                                sim::to_seconds(queue.now()));
        client_take_decodes();
    }

    /// Feeds one *delivered* repair packet to the client-side decoder.
    void client_on_repair(const RepairPacket& r) {
        if (!rlc_decoder.has_value()) return;
        if (r.count == 0 || r.count > cfg.rlc.window_packets) {
            metrics.add("rlc_forged_rejected");
            return;
        }
        if (!client_admit(r.base + r.count)) return;
        rlc_decoder->add_repair(r.base, r.count, r.cseed, nullptr, 0,
                                sim::to_seconds(queue.now()));
        client_take_decodes();
    }

    /// Completes every source packet the decoder solved since the last
    /// call at the current time, then consumes its in-order log.
    void client_take_decodes() {
        for (const fec::RlcDecoder::DecodedEvent& d : rlc_decoder->decoded()) {
            const std::uint64_t idx = d.index;
            // A forged coordinate can decode an index the sender never
            // issued; the transmit log bounds what is real.
            if (idx < rlc_lo || idx >= rlc_next) continue;
            const RlcSource& src = rlc_source(idx);
            receiver.on_packet(src.header, queue.now());
            metrics.add("rlc_packets_recovered");
            if (cfg.collect_metrics) {
                metrics.hist("rlc_decode_delay_ms").record(static_cast<std::uint64_t>(
                    (queue.now() - src.expect_arrival) / 1'000'000));
            }
            trace_event(obs::EventType::kFecRecovered, obs::Actor::kClient,
                        queue.now(), src.header.window, src.header.seq,
                        static_cast<std::int64_t>(src.header.frame_index),
                        sim::to_seconds(queue.now() - src.expect_arrival) * 1e3,
                        static_cast<double>(rlc_decoder->rank()));
        }
        rlc_drain_in_order();
        rlc_prune_sources();
    }

    // ---- receiver-authoritative recovery plane (DESIGN.md §13) -------------

    /// When the recovery plane stops repairing window k: the playout
    /// deadline of its last frame (plus slack), after which a late repair
    /// cannot change what the viewer sees.  Never earlier than the ACK
    /// instant, so finalize always runs after ack_window.
    sim::SimTime recovery_fin_time(std::size_t k) const {
        const std::size_t n = planner.window_ldus();
        const sim::SimTime ack_at =
            static_cast<sim::SimTime>(k + 1) * period +
            cfg.data_link.propagation_delay + kFinalizeSlack;
        return std::max(ack_at + 1,
                        playout.deadline((k + 1) * n - 1) + kFinalizeSlack);
    }

    /// One client NACK round for window k.  Stops when nothing is missing,
    /// rounds are exhausted, or no answer could land inside the playout
    /// budget; otherwise names the losses on the feedback path and books
    /// the next round after an RTT-based, jittered exponential backoff.
    void nack_check(std::size_t k, std::size_t round) {
        const sim::SimTime fin = recovery_fin_time(k);
        if (queue.now() >= fin) return;
        const std::uint64_t missing = receiver.incomplete_frames(k);
        const std::size_t deficit =
            rlc_decoder.has_value()
                ? std::min<std::size_t>(rlc_decoder->unresolved(), 255)
                : 0;
        if (missing == 0 && deficit == 0) return;
        const sim::SimTime rtt = cfg.feedback_link.propagation_delay +
                                 cfg.data_link.propagation_delay;
        if (queue.now() + rtt >= fin) {
            metrics.add("nack_suppressed_budget");
            return;  // even an instant answer would arrive past the budget
        }
        NackRequest nr;
        nr.seq = ++nack_seq;
        nr.window = k;
        nr.missing = missing;
        nr.rank_deficit = deficit;
        nr.retry = round;
        metrics.add("nack_requests_sent");
        trace_event(obs::EventType::kNackSent, obs::Actor::kClient,
                    queue.now(), k, nr.seq,
                    static_cast<std::int64_t>(std::popcount(missing)),
                    static_cast<double>(deficit),
                    static_cast<double>(round));
        feedback.send(FeedbackMsg{nr}, cfg.feedback_bits);
        if (round >= RecoveryConfig::kMaxRetries) return;
        double timeout_s =
            RecoveryConfig::kRttTimeoutMult * sim::to_seconds(rtt);
        for (std::size_t r = 0; r < round; ++r) {
            timeout_s *= RecoveryConfig::kBackoffBase;
        }
        const double u = nack_rng.uniform();
        timeout_s *= 1.0 + RecoveryConfig::kJitterFrac * (2.0 * u - 1.0);
        // (k, round + 1) packed in one word: a [this, k, round] capture
        // outgrows std::function's 16-byte buffer and allocates per round.
        constexpr std::size_t kRounds = RecoveryConfig::kMaxRetries + 1;
        const std::size_t next = k * kRounds + round + 1;
        queue.schedule_at(queue.now() + sim::from_seconds(timeout_s), [this, next] {
            nack_check(next / kRounds, next % kRounds);
        });
    }

    /// Sender's NACK handler: admission through the RepairScheduler, then
    /// immediate service, queueing, or shedding per the window's mode.
    void on_nack(const NackRequest& nr) {
        if (!repair.has_value()) return;  // only an undetected flip forges one
        metrics.add("nack_requests_received");
        repair->on_feedback_alive();
        const sim::SimTime deadline =
            nr.window < cfg.num_windows ? recovery_fin_time(nr.window) : 0;
        auto job = repair->admit(nr, deadline, queue.now());
        if (!job.has_value()) return;
        if (repair->may_service_now()) {
            service_job(*job);
            repair->note_serviced();
        } else if (auto shed = repair->enqueue(*job)) {
            trace_event(obs::EventType::kRepairShed, obs::Actor::kServer,
                        queue.now(), shed->window, shed->seq,
                        static_cast<std::int64_t>(shed->window));
        }
    }

    /// Answers one admitted repair job: resend the named frames when they
    /// can still make their playout deadlines (whole-frame granularity —
    /// the bitmap does not say which fragments died), then release banked
    /// RLC credits as targeted repairs up to the per-NACK cap.
    void service_job(const RepairJob& job) {
        WindowReport& rep = reports[job.window];
        std::size_t retx_pkts = 0;
        const std::vector<SentFrame>* frames = sent_frames_of(job.window);
        if (cfg.retransmit_critical && job.missing != 0 && frames != nullptr) {
            // validate() caps n at the bitmap width under recovery.
            const std::size_t n = planner.window_ldus();
            for (std::size_t f = 0; f < n; ++f) {
                if ((job.missing & (std::uint64_t{1} << f)) == 0) continue;
                const SentFrame& sf = (*frames)[f];
                if (!sf.valid) continue;  // shed before sending: no material
                const std::size_t packets = sf.prototype.num_fragments;
                const sim::SimTime arrive =
                    queue.now() +
                    data.serialization_time(frame_wire_bits(sf.frame_bits, packets)) +
                    cfg.data_link.propagation_delay;
                if (arrive >= playout.deadline(job.window * n + f)) {
                    metrics.add("nack_retx_skipped_deadline");
                    continue;
                }
                for (std::size_t frag = 0; frag < packets; ++frag) {
                    const std::size_t size =
                        net::fragment_size(sf.frame_bits, cfg.packet_bits, frag);
                    const std::size_t wire_bits = size + kPacketHeaderBits;
                    stage_packet(sf.prototype, next_seq++, frag, size, true);
                    data.send_sideband_staged(wire_bits);
                    ++rep.retransmissions;
                    ++retx_pkts;
                    metrics.add("nack_retx_packets");
                    metrics.add("nack_retx_bits", wire_bits);
                }
            }
        }
        std::size_t repairs = 0;
        if (rlc_decoder.has_value()) {
            const std::size_t spend =
                std::min({job.rank_deficit, rlc_nack_credit,
                          RecoveryConfig::kMaxRepairsPerNack});
            for (std::size_t i = 0; i < spend; ++i) {
                rlc_send_repair(rep);
                --rlc_nack_credit;
                ++repairs;
            }
            metrics.add("nack_repairs_sent", repairs);
        }
        metrics.add("nack_requests_serviced");
        trace_event(obs::EventType::kNackServed, obs::Actor::kServer,
                    queue.now(), job.window, job.seq,
                    static_cast<std::int64_t>(retx_pkts),
                    static_cast<double>(repairs),
                    static_cast<double>(job.retry));
    }

    /// Releases queued repair jobs the current window's mode and service
    /// budget allow (called at each window start).
    void service_queued_jobs() {
        while (auto job = repair->next_job(queue.now())) {
            service_job(*job);
            repair->note_serviced();
        }
    }

    /// A critical frame awaiting retransmission.  Its missing fragment
    /// ids live in the window-scoped arena retx_fragments.
    struct PendingRetx {
        sim::SimTime ready;                  ///< earliest resend time (NACK received)
        sim::SimTime lost_at = 0;            ///< when the loss hit the wire
        DataPacket prototype;                ///< header template for the frame
        std::size_t frame_bits = 0;          ///< the frame's size
        std::size_t fragments_at = 0;        ///< first missing id in retx_fragments
        std::size_t missing = 0;             ///< fragment ids still missing
        std::size_t attempts = 0;
    };

    /// Queues a resend on the window's list, ready once its NACK could
    /// have come back.  The ready time is the link's free time plus a
    /// round trip, and the link's free time never decreases, so the list
    /// is sorted by ready time in push order: a FIFO.
    void push_retx(PendingRetx& rx) {
        rx.ready = data.next_free_time() + 2 * cfg.data_link.propagation_delay;
        assert(pending_retx.empty() || pending_retx.back().ready <= rx.ready);
        pending_retx.push_back(rx);
    }

    /// Resends the missing fragments of one critical frame; requeues on
    /// repeated loss while attempts remain.
    void service_retx(PendingRetx rx, sim::SimTime deadline, WindowReport& rep) {
        std::size_t total_bits = rx.missing * kPacketHeaderBits;
        for (std::size_t i = 0; i < rx.missing; ++i) {
            total_bits += net::fragment_size(rx.frame_bits, cfg.packet_bits,
                                             retx_fragments[rx.fragments_at + i]);
        }
        const sim::SimTime start = std::max(data.next_free_time(), rx.ready);
        if (start + data.serialization_time(total_bits) > deadline) {
            return;  // cannot make the playout deadline; give up on the frame
        }
        data.stall_until(rx.ready);
        trace_event(obs::EventType::kRetransmit, obs::Actor::kServer, start,
                    rx.prototype.window, rx.prototype.seq,
                    static_cast<std::int64_t>(rx.prototype.frame_index),
                    static_cast<double>(rx.attempts),
                    static_cast<double>(rx.missing));
        if (cfg.collect_metrics) {
            // NACK round trip + queueing behind the window's own traffic,
            // from the moment the loss hit the wire to the resend start.
            metrics.hist("retransmit_latency_ms").record(
                static_cast<std::uint64_t>((start - rx.lost_at) / 1'000'000));
        }
        // Resend every listed fragment, compacting the ones lost again to
        // the front of the frame's list (in order) for the next attempt.
        std::size_t still_missing = 0;
        for (std::size_t i = 0; i < rx.missing; ++i) {
            const std::size_t f = retx_fragments[rx.fragments_at + i];
            ++rep.retransmissions;
            if (!send_packet(rx.prototype, f,
                             net::fragment_size(rx.frame_bits, cfg.packet_bits, f),
                             /*retransmission=*/true, rep)) {
                retx_fragments[rx.fragments_at + still_missing++] = f;
            }
        }
        rx.missing = still_missing;
        if (still_missing > 0 &&
            rx.attempts + 1 < SessionConfig::kMaxRetransmits) {
            ++rx.attempts;
            push_retx(rx);
        }
    }

    /// Services pending retransmissions, oldest first, while the oldest
    /// one's NACK has arrived by the link's current timeline position.
    void service_ready_retx(sim::SimTime deadline, WindowReport& rep) {
        while (retx_head < pending_retx.size() &&
               pending_retx[retx_head].ready <= data.next_free_time()) {
            service_retx(pending_retx[retx_head++], deadline, rep);
        }
    }

    /// Window k's trailer as a channel message, built in place on a
    /// recycled vector.
    DataMsg trailer_msg(std::size_t k, const std::vector<std::size_t>& layer_sent) {
        DataMsg m{std::in_place_type<WindowTrailer>};
        WindowTrailer& t = *std::get_if<WindowTrailer>(&m);
        t.seq = next_seq++;
        t.window = k;
        t.layer_sent = vectors.take(layer_sent);
        return m;
    }

    /// Transmits buffer window k (invoked by the event queue at k*T).
    void send_window(std::size_t k) {
        if (k + 1 < cfg.num_windows) {
            queue.schedule_stamped(static_cast<sim::SimTime>(k + 1) * period,
                                   window_seq + k + 1, [this, k] { send_window(k + 1); });
        }
        const std::size_t n = planner.window_ldus();
        const std::vector<media::Frame>& frames = take_frames(k);
        if (governor.has_value() && k + 1 == cfg.num_windows) {
            // The final window's ACK arrives after the window-start clock
            // stops; without this it would be misread as a future forgery.
            governor->close_stream();
        }
        const std::size_t bound =
            governor.has_value()
                ? governor->on_window_start(k, queue.now())
            : cfg.pinned_bound != 0
                ? std::min(cfg.pinned_bound,
                           std::max<std::size_t>(planner.noncritical_size(), 1))
                : estimator.bound();
        const WindowPlan& plan = planner.plan(bound);
        const sim::SimTime deadline =
            static_cast<sim::SimTime>(k + 1) * period;

        WindowReport& rep = reports[k];
        rep.window = k;
        rep.bound_used = bound;
        if (governor.has_value()) rep.governor_state = governor->state();

        if (repair.has_value()) {
            const std::size_t wd_before = repair->report().watchdog_timeouts;
            repair->on_window_start(
                k, governor.has_value()
                       ? std::optional<GovernorState>(governor->state())
                       : std::nullopt);
            if (repair->report().watchdog_timeouts != wd_before) {
                trace_event(
                    obs::EventType::kRepairTimeout, obs::Actor::kServer,
                    queue.now(), k, 0,
                    static_cast<std::int64_t>(control::kWatchdogWindows));
            }
            if (repair->mode() == RecoveryMode::kProactive &&
                rlc_decoder.has_value()) {
                // The path was just declared dead: credits banked for NACK
                // bursts would otherwise be stranded — flush them into the
                // fixed schedule so degradation matches the pure-FEC arm.
                while (rlc_nack_credit > 0) {
                    rlc_send_repair(rep);
                    --rlc_nack_credit;
                }
            }
            service_queued_jobs();
        }

        // Window-scoped scratch buffers are Impl members so the steady
        // state reuses their capacity instead of reallocating per window.
        std::vector<std::size_t>& layer_sent = layer_sent_scratch;
        layer_sent.assign(plan.layer_sizes.size(), 0);
        std::vector<unsigned char>& sent_local = sent_local_scratch;
        sent_local.assign(n, 0);
        pending_retx.clear();
        retx_head = 0;
        retx_fragments.clear();

        // CMT-style predictive shedding: budget the window's bits up front
        // (with a retransmission reserve) and pre-drop the lowest-priority
        // tail of the plan.
        std::vector<unsigned char>& predropped = predropped_scratch;
        predropped.assign(n, 0);
        if (cfg.drop_policy == DropPolicy::kPredictive) {
            const double budget = sim::to_seconds(period) *
                                  cfg.data_link.bandwidth_bps *
                                  (1.0 - SessionConfig::kPredictiveReserve);
            double acc = 0.0;
            for (const WireEntry& entry : plan.order) {
                const std::size_t frame_bits = frames[entry.local_frame].size_bits;
                const double bits = static_cast<double>(frame_wire_bits(
                    frame_bits, net::packet_count(frame_bits, cfg.packet_bits)));
                if (acc + bits > budget) {
                    predropped[entry.local_frame] = 1;
                } else {
                    acc += bits;
                }
            }
        }
        // Wire material for NACK retransmissions (recovery plane only).
        std::vector<SentFrame>* sent_frames = recovery_on() ? &open_sent_frames(k) : nullptr;
        for (const WireEntry& entry : plan.order) {
            service_ready_retx(deadline, rep);

            const media::Frame& frame = frames[entry.local_frame];
            const std::size_t packets = net::packet_count(frame.size_bits, cfg.packet_bits);
            // Shed the frame if it was pre-dropped, if a prerequisite was
            // never sent (the decoder could not use it), or if it cannot
            // finish serializing by the deadline.
            const auto& prereqs = planner.prerequisites()[entry.local_frame];
            if (predropped[entry.local_frame] ||
                std::any_of(prereqs.begin(), prereqs.end(),
                            [&sent_local](std::size_t q) { return !sent_local[q]; }) ||
                data.next_free_time() +
                        data.serialization_time(frame_wire_bits(frame.size_bits, packets)) >
                    deadline) {
                ++rep.sender_dropped;
                trace_event(obs::EventType::kFrameDeadlineDrop,
                            obs::Actor::kServer, data.next_free_time(), k, 0,
                            static_cast<std::int64_t>(frame.index));
                continue;
            }

            DataPacket proto;
            proto.window = k;
            proto.layer = entry.layer;
            proto.tx_pos = entry.tx_pos;
            proto.frame_index = frame.index;
            proto.num_fragments = packets;

            // Fragments lost on this first send go straight into the
            // retransmission arena; they stay only if the frame is queued
            // for retransmission below.
            const std::size_t lost_at = retx_fragments.size();
            for (std::size_t f = 0; f < packets; ++f) {
                if (!send_packet(proto, f,
                                 net::fragment_size(frame.size_bits, cfg.packet_bits, f),
                                 /*retransmission=*/false, rep)) {
                    retx_fragments.push_back(f);
                }
            }
            const std::size_t lost = retx_fragments.size() - lost_at;
            sent_local[entry.local_frame] = 1;
            ++layer_sent[entry.layer];

            if (recovery_on()) {
                // Keep the frame's wire material so a NACK can trigger its
                // retransmission; pruned when the window's playout budget
                // expires (finalize_window).  The oracle-driven PendingRetx
                // path below must stay cold: under the recovery plane only
                // received NACKs may trigger resends.
                retx_fragments.resize(lost_at);
                (*sent_frames)[entry.local_frame] = SentFrame{proto, frame.size_bits, true};
                continue;
            }
            if (lost > 0 && entry.critical && cfg.retransmit_critical) {
                PendingRetx rx;
                rx.lost_at = data.next_free_time();
                rx.prototype = proto;
                rx.frame_bits = frame.size_bits;
                rx.fragments_at = lost_at;
                rx.missing = lost;
                push_retx(rx);
            } else {
                retx_fragments.resize(lost_at);
            }
        }

        // Drain remaining retransmissions that can still make the deadline.
        while (retx_head < pending_retx.size()) {
            service_retx(pending_retx[retx_head++], deadline, rep);
        }

        data.send(trailer_msg(k, layer_sent), cfg.feedback_bits);

        if (recovery_on()) {
            // Two-stage close: the ACK (and NACK round 0) leave at the
            // legacy finalize instant, but the window stays open for
            // repairs until its playout budget is spent.
            queue.schedule_at(
                deadline + cfg.data_link.propagation_delay + kFinalizeSlack,
                [this, k] { ack_window(k); });
            queue.schedule_at(recovery_fin_time(k),
                              [this, k] { finalize_window(k); });
        } else {
            queue.schedule_at(
                deadline + cfg.data_link.propagation_delay + kFinalizeSlack,
                [this, k] { finalize_window(k); });
        }
    }

    // ---- client side -----------------------------------------------------

    /// Reports window k's loss pattern to the server on the feedback path.
    void send_ack(std::size_t k, const WindowOutcome& out) {
        FeedbackMsg m{std::in_place_type<Feedback>};
        Feedback& f = *std::get_if<Feedback>(&m);
        f.seq = ++ack_seq;
        f.window = k;
        f.layer_max_burst = vectors.take(out.layer_max_burst);
        f.layer_lost = vectors.take(out.layer_lost);
        metrics.add("acks_sent");
        trace_event(obs::EventType::kAckSent, obs::Actor::kClient,
                    queue.now(), k, f.seq);
        feedback.send(std::move(m), cfg.feedback_bits);
    }

    /// Recovery-plane window close, stage 1 (at the legacy finalize
    /// instant): report the window's state, send the ACK, and open NACK
    /// round 0.  The window itself stays open for repairs until
    /// recovery_fin_time (stage 2, finalize_window).
    void ack_window(std::size_t k) {
        send_ack(k, receiver.report(k));
        nack_check(k, 0);
    }

    void finalize_window(std::size_t k) {
        // The receiver's buffer: valid until its next report/finalize.
        const WindowOutcome& out = receiver.finalize(k);
        const std::size_t n = planner.window_ldus();
        for (std::size_t f = 0; f < out.playable_at.size(); ++f) {
            if (out.playable_at[f].has_value()) {
                playout.frame_ready(k * n + f, *out.playable_at[f]);
            }
        }
        WindowReport& rep = reports[k];
        const espread::ContinuityReport cr = espread::measure_continuity(out.playback);
        rep.clf = cr.clf;
        rep.lost_ldus = cr.unit_losses;
        rep.alf = cr.alf;
        rep.undecodable = out.undecodable;
        meter.add(cr);
        trace_event(obs::EventType::kWindowFinalized, obs::Actor::kClient,
                    queue.now(), k, 0, static_cast<std::int64_t>(cr.clf),
                    cr.alf);

        if (recovery_on()) {
            // The ACK left at ack_window time; retransmission material for
            // this window can no longer be used.
            SentWindow& w = sent_window(k);
            if (w.window == k) w.open = false;
            return;
        }
        send_ack(k, out);
    }

    // ---- server side (feedback path) --------------------------------------

    void on_feedback(const Feedback& f) {
        // Any feedback-path arrival proves the path alive, even an ACK the
        // sequence or admission rules go on to refuse.
        if (repair.has_value()) repair->on_feedback_alive();
        // UDP ACKs can arrive out of order; the server acts only on the
        // highest sequence number seen (paper §4.2).
        if (f.seq <= last_ack_seq) {
            metrics.add("acks_stale");
            trace_event(obs::EventType::kAckStale, obs::Actor::kServer,
                        queue.now(), f.window, f.seq);
            return;
        }
        // Window-sequence admission (governor only): duplicates, stragglers
        // older than the last accepted report and implausible future
        // windows are refused before they can advance the ACK horizon or
        // touch the estimator.
        if (governor.has_value() &&
            governor->admit_ack(f.window, f.seq, queue.now()).has_value()) {
            return;
        }
        last_ack_seq = f.seq;
        metrics.add("acks_applied");
        feedback_window_ = f.window;
        trace_event(obs::EventType::kAckApplied, obs::Actor::kServer,
                    queue.now(), f.window, f.seq);
        if (cfg.pinned_bound != 0) return;
        std::size_t observed = 0;
        const auto& critical = planner.layer_critical();
        for (std::size_t l = 0; l < f.layer_max_burst.size(); ++l) {
            if (l < critical.size() && critical[l]) continue;
            observed = std::max(observed, f.layer_max_burst[l]);
        }
        if (feedback.impaired()) {
            // A corrupted-but-plausible ACK can report an absurd burst; one
            // such value must not poison the estimator for the rest of the
            // stream.  Clamp to the largest physically observable run (the
            // non-critical layer size) — graceful degradation, never a
            // crash or a runaway bound.
            observed = std::min(
                observed, std::max<std::size_t>(planner.noncritical_size(), 1));
        }
        if (governor.has_value()) {
            // Outlier-guarded Eq. 1 step (still fires the trace observer).
            governor->on_observation(observed, queue.now());
        } else {
            estimator.update(observed);  // fires the EWMA trace observer
        }
    }

    // ---- driver ------------------------------------------------------------

    SessionResult run() {
        reports.assign(cfg.num_windows, WindowReport{});
        // Window k starts under stamp window_seq + k, as if every start
        // were scheduled here, but each start schedules the next
        // (send_window), so the heap holds one of them at a time.
        window_seq = queue.stamp();
        for (std::size_t k = 1; k < cfg.num_windows; ++k) queue.stamp();
        queue.schedule_stamped(0, window_seq, [this] { send_window(0); });
        queue.run();
        if (rlc_decoder.has_value()) {
            // Stream over: whatever the code did not recover is lost for
            // good; flush the in-order log so the delay accounting covers
            // every delivered source packet.
            rlc_decoder->close(sim::to_seconds(queue.now()));
            rlc_drain_in_order();
        }

        SessionResult result;
        result.windows = std::move(reports);
        result.total = meter.total();
        result.data_channel = data.stats();
        result.feedback_channel = feedback.stats();
        result.acks_sent = metrics["acks_sent"];
        result.acks_applied = metrics["acks_applied"];
        if (governor.has_value()) result.governor = governor->report();

        // Playout-judged continuity over the whole stream.
        const std::size_t n = planner.window_ldus();
        const std::size_t total_ldus = cfg.num_windows * n;
        const PlayoutVerdict verdict = playout.judge(total_ldus);
        const espread::LossMask& playout_mask = verdict.on_time;
        espread::ContinuityMeter playout_meter;
        result.playout_window_clf.reserve(cfg.num_windows);
        for (std::size_t k = 0; k < cfg.num_windows; ++k) {
            const espread::ContinuityReport cr =
                espread::measure_continuity(playout_mask, k * n, (k + 1) * n);
            playout_meter.add(cr);
            result.playout_window_clf.push_back(cr.clf);
        }
        result.playout_total = playout_meter.total();
        result.required_startup = verdict.required_startup;

        if (cfg.trace != nullptr) {
            // Slots the playout clock judged lost: the frame either never
            // became playable or became playable after its deadline.
            for (std::size_t i = 0; i < total_ldus; ++i) {
                if (playout_mask[i]) continue;
                const auto slack = playout.slack(i);
                trace_event(obs::EventType::kPlayoutMiss, obs::Actor::kClient,
                            playout.deadline(i), i / n, 0,
                            static_cast<std::int64_t>(i),
                            slack ? sim::to_seconds(*slack) * 1e3 : 0.0);
            }
        }
        if (cfg.collect_metrics) fill_metrics(result, playout_mask);
        return result;
    }

    /// Completes the registry from the finished run and hands it to
    /// SessionResult::metrics.  The sites above count in flight; the values
    /// kept elsewhere (channel stats, window reports, the receiver, the
    /// governor and the repair scheduler) are added here.  Each gated group
    /// appears only when its feature ran, so a registry without the feature
    /// stays byte-identical to builds that predate it (zero-cost-off).
    void fill_metrics(SessionResult& result, const espread::LossMask& playout_mask) {
        obs::MetricsRegistry& m = metrics;
        const net::ChannelStats& d = result.data_channel;
        const net::ChannelStats& f = result.feedback_channel;
        m.add("data_packets_sent", d.sent);
        m.add("data_packets_dropped", d.dropped);
        m.add("data_packets_delivered", d.delivered);
        m.add("data_bits_sent", d.bits_sent);
        m.add("feedback_packets_sent", f.sent);
        m.add("feedback_packets_dropped", f.dropped);
        m.open({"acks_applied", "acks_sent", "acks_stale"});
        std::size_t playout_misses = 0;
        for (const bool ok : playout_mask) playout_misses += ok ? 0 : 1;
        m.add("playout_misses", playout_misses);

        std::uint64_t retx = 0, dropped = 0, undecodable = 0;
        obs::Histogram& bounds = m.hist("bound_used");
        obs::Histogram& clf = m.hist("window_clf");
        obs::Histogram& burst = m.hist("window_packet_burst");
        for (const WindowReport& w : result.windows) {
            retx += w.retransmissions;
            dropped += w.sender_dropped;
            undecodable += w.undecodable;
            bounds.record(w.bound_used);
            clf.record(w.clf);
            burst.record(w.actual_packet_burst);
        }
        m.add("retransmissions", retx);
        m.add("frames_deadline_dropped", dropped);
        m.add("frames_undecodable", undecodable);
        m.hist("loss_run_length").merge(d.loss_runs);
        m.hist("retransmit_latency_ms");  // present even when empty

        if (cfg.data_impairment.active() || cfg.feedback_impairment.active()) {
            m.add("data_packets_duplicated", d.duplicated);
            m.add("data_packets_corrupt_rejected", d.corrupt_rejected);
            m.add("data_packets_reordered", d.reordered);
            m.add("data_packets_forced_dropped", d.forced_dropped);
            m.add("feedback_corrupt_rejected", f.corrupt_rejected);
            m.add("feedback_forced_dropped", f.forced_dropped);
            m.add("recv_duplicates_dropped", receiver.duplicates_dropped());
            m.add("recv_stale_dropped", receiver.stale_dropped());
            m.add("recv_mismatch_dropped", receiver.mismatch_dropped());
        }
        if (rlc_decoder.has_value()) {
            m.open({"rlc_forged_rejected", "rlc_packets_recovered",
                    "rlc_repair_bits_sent", "rlc_repairs_lost", "rlc_repairs_sent"});
            m.add("rlc_repairs_redundant", rlc_decoder->repairs_redundant());
            m.add("rlc_packets_unrecovered", rlc_decoder->symbols_lost());
            m.add("rlc_rank", rlc_decoder->rank());
            m.hist("rlc_decode_delay_ms");
            m.hist("rlc_in_order_delay_ms");
        }
        if (governor.has_value()) {
            const GovernorReport& g = governor->report();
            m.add("governor_windows_normal", g.windows_in_state[0]);
            m.add("governor_windows_degraded", g.windows_in_state[1]);
            m.add("governor_windows_fallback", g.windows_in_state[2]);
            m.add("governor_windows_recovering", g.windows_in_state[3]);
            m.add("governor_acks_rejected", g.acks_rejected());
            m.add("governor_acks_rejected_duplicate", g.acks_rejected_duplicate);
            m.add("governor_acks_rejected_stale", g.acks_rejected_stale);
            m.add("governor_acks_rejected_future", g.acks_rejected_future);
            m.add("governor_observations_clamped", g.observations_clamped);
            m.add("governor_fallbacks", g.fallbacks);
            m.add("governor_recoveries", g.recoveries);
            m.add("governor_transitions", g.transitions);
            m.add("governor_entries_normal", g.state_entries[0]);
            m.add("governor_entries_degraded", g.state_entries[1]);
            m.add("governor_entries_fallback", g.state_entries[2]);
            m.add("governor_entries_recovering", g.state_entries[3]);
            // Per-window governed bound and supervision state; bound_used
            // in the per-window reports carries the same bound per window.
            obs::Histogram& governed = m.hist("governor_bound");
            obs::Histogram& states = m.hist("governor_state");
            for (const WindowReport& w : result.windows) {
                governed.record(w.bound_used);
                states.record(static_cast<std::uint64_t>(w.governor_state));
            }
        }
        if (repair.has_value()) {
            const RepairSchedulerReport& r = repair->report();
            m.open({"nack_credits_expired", "nack_repairs_sent",
                    "nack_requests_received", "nack_requests_sent",
                    "nack_requests_serviced", "nack_retx_bits", "nack_retx_packets",
                    "nack_retx_skipped_deadline", "nack_suppressed_budget"});
            m.add("recovery_nacks_admitted", r.nacks_admitted);
            m.add("recovery_nacks_duplicate", r.nacks_duplicate);
            m.add("recovery_nacks_invalid", r.nacks_invalid);
            m.add("recovery_jobs_shed", r.jobs_shed);
            m.add("recovery_jobs_expired", r.jobs_expired);
            m.add("recovery_watchdog_timeouts", r.watchdog_timeouts);
            m.add("recovery_windows_reactive", r.windows_reactive);
            m.add("recovery_windows_suspended", r.windows_suspended);
            m.add("recovery_windows_proactive", r.windows_proactive);
            m.add("data_sideband_sent", d.sideband_sent);
            m.add("data_sideband_bits", d.sideband_bits);
        }
        result.metrics = std::move(m);
    }

    SessionConfig cfg;
    sim::EventQueue queue;
    sim::Rng rng;
    Planner planner;
    /// One buffer window's playback duration.  Computed once because
    /// cfg.window_duration() re-reads a kTraceFile stream's file.
    sim::SimTime period;
    Receiver receiver;
    espread::BurstEstimator estimator;
    std::optional<AdaptationGovernor> governor;  ///< engaged iff cfg.governor.enabled
    net::FaultChannel<DataMsg> data;
    net::FaultChannel<FeedbackMsg> feedback;
    PlayoutClock playout;

    std::optional<media::TraceGenerator> mpeg;
    std::vector<media::Frame> pregen;

    // send_window scratch (hoisted: reused capacity, no per-window heap
    // traffic in steady state; pinned by test_alloc's ratchet).
    std::vector<media::Frame> frames_scratch;
    std::vector<std::size_t> layer_sent_scratch;
    std::vector<unsigned char> sent_local_scratch;
    std::vector<unsigned char> predropped_scratch;
    VectorPool vectors;  ///< trailer and ACK vectors, recycled on delivery

    std::vector<WindowReport> reports;
    espread::ContinuityMeter meter;
    /// The window's critical resends; [retx_head, end) still pending.
    std::vector<PendingRetx> pending_retx;
    std::size_t retx_head = 0;
    std::vector<std::size_t> retx_fragments;  ///< PendingRetx missing ids

    // Sliding-window RLC state (engaged iff cfg.rlc_active()).
    std::optional<fec::RlcDecoder> rlc_decoder;  ///< rank-only mode
    sim::Rng rlc_rng{0};  ///< lane kSessionLaneRlcCoefficients, coded only
    /// Ring over source indices [rlc_lo, rlc_next); power-of-two size.
    std::vector<RlcSource> rlc_sources;
    std::size_t rlc_mask = 0;  ///< rlc_sources.size() - 1 (no divide per lookup)
    std::uint64_t rlc_lo = 0;
    std::uint64_t rlc_next = 0;
    std::uint64_t rlc_frontier = 0;  ///< in-order log consumed up to here
    std::size_t rlc_credit = 0;
    std::uint64_t client_hi = 0;     ///< one past the highest witnessed index
    sim::SimTime client_hi_at = 0;   ///< when client_hi last advanced

    // Receiver-authoritative recovery plane (engaged iff
    // cfg.recovery.enabled; DESIGN.md §13).
    struct SentFrame {
        DataPacket prototype;             ///< header template for resends
        std::size_t frame_bits = 0;       ///< the frame's size
        bool valid = false;               ///< false = frame was never sent
    };
    std::optional<RepairScheduler> repair;
    sim::Rng nack_rng{0};  ///< lane kSessionLaneNackJitter, recovery only
    /// One window's wire material, by local frame (NACK retransmission
    /// source), from its send_window until its playout budget expires.
    struct SentWindow {
        std::size_t window = 0;
        bool open = false;
        std::vector<SentFrame> frames;
    };
    /// Ring by window index, power-of-two size: window k's slot is
    /// sent_windows[k & (size - 1)].  A closed slot keeps its frame table
    /// for the window that reuses it.
    std::vector<SentWindow> sent_windows;

    SentWindow& sent_window(std::size_t k) noexcept {
        return sent_windows[k & (sent_windows.size() - 1)];
    }

    /// Window k's sent frames, or nullptr once it closed (or before its
    /// send_window).
    const std::vector<SentFrame>* sent_frames_of(std::size_t k) noexcept {
        const SentWindow& w = sent_window(k);
        return w.open && w.window == k ? &w.frames : nullptr;
    }

    /// Window k's sent frames, opened with every frame unsent.  The ring
    /// doubles while another open window holds k's slot.
    std::vector<SentFrame>& open_sent_frames(std::size_t k) {
        while (sent_window(k).open && sent_window(k).window != k) {
            std::vector<SentWindow> wider(2 * sent_windows.size());
            for (SentWindow& w : sent_windows) {
                if (w.open) wider[w.window & (wider.size() - 1)] = std::move(w);
            }
            sent_windows.swap(wider);
        }
        SentWindow& w = sent_window(k);
        if (!w.open) {
            w.window = k;
            w.open = true;
            w.frames.assign(planner.window_ldus(), SentFrame{});
        }
        return w.frames;
    }

    std::uint64_t nack_seq = 0;   ///< client NACK sequence space
    std::size_t rlc_nack_credit = 0;  ///< banked repairs a NACK may release

    std::uint64_t window_seq = 0;  ///< queue stamp of window 0's start
    std::uint64_t next_seq = 0;
    std::uint64_t ack_seq = 0;
    std::uint64_t last_ack_seq = 0;
    std::size_t packet_burst = 0;
    std::size_t feedback_window_ = 0;  ///< window of the last applied ACK
    /// Counted in flight (histograms only under cfg.collect_metrics);
    /// fill_metrics completes it into SessionResult::metrics.
    obs::MetricsRegistry metrics;
};

Session::Session(SessionConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}
Session::~Session() = default;

SessionResult Session::run() { return impl_->run(); }

SessionResult run_session(SessionConfig cfg) {
    Session s{std::move(cfg)};
    return s.run();
}

}  // namespace espread::proto
