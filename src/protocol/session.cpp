#include "protocol/session.hpp"

#include "protocol/playout.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

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

using DataMsg = std::variant<DataPacket, WindowTrailer, RepairPacket>;
using FeedbackMsg = std::variant<Feedback, NackRequest>;

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
          receiver(planner.window_ldus(), planner.layer_sizes(),
                   planner.prerequisites()),
          estimator(std::max<std::size_t>(planner.noncritical_size(), 1), cfg.alpha),
          sliding(std::max<std::size_t>(planner.noncritical_size(), 1),
                  std::max<std::size_t>(cfg.sliding_history, 1)),
          data(queue, cfg.data_link, cfg.data_loss,
               rng.split(contracts::kSessionLaneDataChannel)),
          feedback(queue, cfg.feedback_link, cfg.feedback_loss,
                   rng.split(contracts::kSessionLaneFeedbackChannel)),
          playout(cfg.frame_rate(),
                  static_cast<sim::SimTime>(cfg.playout_startup_windows *
                                            static_cast<double>(
                                                cfg.window_duration()))) {
        if (cfg.stream.kind == StreamKind::kMpeg) {
            sim::Rng trace_rng = rng.split(contracts::kSessionLaneMediaTrace);
            mpeg.emplace(media::movie_stats(cfg.stream.movie), trace_rng.next_u64());
        } else if (cfg.stream.kind == StreamKind::kTraceFile) {
            load_trace_file();
        } else {
            const std::size_t total = cfg.num_windows * cfg.window_ldus();
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
        data.set_receiver([this](DataMsg m) {
            if (const DataPacket* p = std::get_if<DataPacket>(&m)) {
                receiver.on_packet(*p, queue.now());
                if (!p->retransmission && !p->parity) client_on_source(*p);
            } else if (const WindowTrailer* t = std::get_if<WindowTrailer>(&m)) {
                receiver.on_trailer(*t);
            } else {
                client_on_repair(std::get<RepairPacket>(m));
            }
        });
        feedback.set_receiver([this](FeedbackMsg m) {
            if (const Feedback* f = std::get_if<Feedback>(&m)) {
                on_feedback(*f);
            } else {
                on_nack(std::get<NackRequest>(m));
            }
        });

        if (cfg.trace != nullptr) {
            data.set_trace(cfg.trace, obs::Actor::kDataChannel);
            feedback.set_trace(cfg.trace, obs::Actor::kFeedbackChannel);
            receiver.set_trace(cfg.trace);
            if (cfg.estimator == EstimatorKind::kEwma) {
                // Translate Eq. 1 steps into EstimatorUpdate events; the
                // sliding-max alternative is traced directly in on_feedback.
                estimator.set_observer([this](std::size_t observed, double old_e,
                                              double new_e) {
                    trace_estimator_update(
                        observed,
                        espread::BurstEstimator::bound_for(old_e,
                                                           estimator.window()),
                        espread::BurstEstimator::bound_for(new_e,
                                                           estimator.window()));
                });
            }
        }

        if (cfg.rlc_active()) {
            // Coefficient seeds draw from their own RNG lane so enabling
            // the code never shifts the Gilbert loss, media, or
            // impairment processes; an uncoded session never takes this
            // split and stays byte-identical to pre-FEC builds.
            rlc_rng = rng.split(contracts::kSessionLaneRlcCoefficients);
            rlc_decoder.emplace(cfg.rlc.window_packets, /*symbol_bytes=*/0);
        }

        if (cfg.recovery.enabled) {
            // NACK backoff jitter draws from its own RNG lane so enabling
            // the plane never shifts the loss, media, or impairment
            // processes; a recovery-off session never takes this split.
            nack_rng = rng.split(contracts::kSessionLaneNackJitter);
            repair.emplace(cfg.recovery, cfg.num_windows);
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
        const std::size_t total = cfg.num_windows * cfg.window_ldus();
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

    /// Sends one packet; updates loss-burst accounting and, for a fresh
    /// source packet of a coded scheme, the RLC coding window.
    bool send_packet(DataPacket p, WindowReport& rep) {
        const std::size_t wire_bits = p.size_bits + kPacketHeaderBits;
        const bool rlc_eligible = rlc_decoder.has_value() && !p.retransmission;
        if (rlc_eligible) {
            // The wire header's fec_group field carries the source index.
            p.fec_group = static_cast<std::size_t>(rlc_next & 0xFFFFFFFFu);
        }
        const bool ok = data.send(DataMsg{p}, wire_bits);
        if (ok) {
            packet_burst = 0;
        } else {
            ++packet_burst;
            rep.actual_packet_burst =
                std::max(rep.actual_packet_burst, packet_burst);
        }
        if (rlc_eligible) rlc_on_source(p, rep);
        return ok;
    }

    // ---- sliding-window RLC (DESIGN.md §12) --------------------------------

    /// Books one freshly sent source packet into the coding window and
    /// spends the credit schedule: overhead_num repairs accrue per
    /// overhead_den source packets.  The decoder lives at the client and
    /// is fed only by deliveries (client_on_source / client_on_repair).
    /// While the recovery plane is reactive (DESIGN.md §13) the credits
    /// bank instead — a NACK releases them as a targeted burst — and the
    /// schedule reverts to fixed emission while the plane is suspended or
    /// the feedback path is declared dead.
    void rlc_on_source(const DataPacket& p, WindowReport& rep) {
        ++rlc_next;
        rlc_sources.push_back(RlcSource{
            p, data.next_free_time() + cfg.data_link.propagation_delay});
        rlc_credit += cfg.rlc.overhead_num;
        while (rlc_credit >= cfg.rlc.overhead_den) {
            rlc_credit -= cfg.rlc.overhead_den;
            if (!repair.has_value() ||
                repair->mode() != RecoveryMode::kReactive) {
                rlc_send_repair(rep);
            } else if (rlc_nack_credit < cfg.recovery.credit_cap) {
                ++rlc_nack_credit;
            } else {
                ++nack_credits_expired;
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
        const bool ok = data.send_sideband(DataMsg{rp}, wire_bits);
        ++rlc_repairs_sent;
        rlc_repair_bits += wire_bits;
        if (ok) {
            packet_burst = 0;
        } else {
            ++packet_burst;
            rep.actual_packet_burst =
                std::max(rep.actual_packet_burst, packet_burst);
            ++rlc_repairs_lost;
        }
        trace_event(obs::EventType::kRepairSent, obs::Actor::kServer,
                    data.next_free_time(), rep.window, rp.seq,
                    static_cast<std::int64_t>(rp.base),
                    static_cast<double>(rp.count),
                    static_cast<double>(rlc_decoder->rank()));
    }

    /// Consumes new in-order delivery log entries, charging each delivered
    /// source its extra in-order latency versus an uncoded direct arrival.
    void rlc_drain_in_order() {
        const auto& log = rlc_decoder->in_order_log();
        for (; rlc_in_order_consumed < log.size(); ++rlc_in_order_consumed) {
            const fec::RlcDecoder::InOrderEvent& e =
                log[rlc_in_order_consumed];
            rlc_frontier = e.index + 1;
            if (e.lost || e.index < rlc_lo ||
                e.index - rlc_lo >= rlc_sources.size()) {
                // The upper-bound check only fires for forged indices a
                // corrupted-but-decodable header smuggled past the client's
                // plausibility horizon.
                continue;
            }
            if (cfg.collect_metrics) {
                const RlcSource& src =
                    rlc_sources[static_cast<std::size_t>(e.index - rlc_lo)];
                const double delay_s =
                    std::max(0.0, e.at - sim::to_seconds(src.expect_arrival));
                rlc_in_order_delay_ms.add(
                    static_cast<std::int64_t>(delay_s * 1e3));
            }
        }
    }

    /// Drops source-window state no longer reachable by the decoder or the
    /// in-order frontier, keeping the deque bounded by the coding window.
    void rlc_prune_sources() {
        const std::uint64_t keep = std::min(rlc_decoder->base(), rlc_frontier);
        while (rlc_lo < keep && !rlc_sources.empty()) {
            rlc_sources.pop_front();
            ++rlc_lo;
        }
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
        const double carried = sim::to_seconds(queue.now() - client_hi_at) *
                               cfg.data_link.bandwidth_bps /
                               static_cast<double>(kPacketHeaderBits);
        if (static_cast<double>(end) >
            static_cast<double>(client_hi + w) + carried) {
            ++rlc_forged_rejected;
            return false;
        }
        if (end > client_hi) {
            client_hi = end;
            client_hi_at = queue.now();
        }
        if (end > 2 * w) {
            rlc_decoder->advance_base(end - 2 * w,
                                      sim::to_seconds(queue.now()));
        }
        return true;
    }

    /// Feeds one *delivered* source packet to the client-side decoder (the
    /// wire header's fec_group field carries the source index).
    void client_on_source(const DataPacket& p) {
        if (!rlc_decoder.has_value()) return;
        const std::uint64_t index = static_cast<std::uint64_t>(p.fec_group);
        if (!client_admit(index + 1)) return;
        rlc_decoder->add_source(index, nullptr, 0,
                                sim::to_seconds(queue.now()));
        rlc_drain_in_order();
        rlc_prune_sources();
    }

    /// Feeds one *delivered* repair packet to the client-side decoder and
    /// completes any newly decoded source packets at the current time.
    void client_on_repair(const RepairPacket& r) {
        if (!rlc_decoder.has_value()) return;
        if (r.count == 0 || r.count > cfg.rlc.window_packets) {
            ++rlc_forged_rejected;
            return;
        }
        if (!client_admit(r.base + r.count)) return;
        const std::size_t before = rlc_decoder->decoded().size();
        rlc_decoder->add_repair(r.base, r.count, r.cseed, nullptr, 0,
                                sim::to_seconds(queue.now()));
        const auto& dec = rlc_decoder->decoded();
        for (std::size_t i = before; i < dec.size(); ++i) {
            const std::uint64_t idx = dec[i].index;
            // A forged coordinate can decode an index the sender never
            // issued; the transmit log bounds what is real.
            if (idx < rlc_lo || idx - rlc_lo >= rlc_sources.size()) continue;
            const RlcSource& src =
                rlc_sources[static_cast<std::size_t>(idx - rlc_lo)];
            receiver.on_packet(src.header, queue.now());
            ++rlc_recovered;
            if (cfg.collect_metrics) {
                rlc_decode_delay_ms.add(static_cast<std::int64_t>(
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
            static_cast<sim::SimTime>(k + 1) * cfg.window_duration() +
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
            ++nacks_suppressed_budget;
            return;  // even an instant answer would arrive past the budget
        }
        NackRequest nr;
        nr.seq = ++nack_seq;
        nr.window = k;
        nr.missing = missing;
        nr.rank_deficit = deficit;
        nr.retry = round;
        ++nacks_sent;
        trace_event(obs::EventType::kNackSent, obs::Actor::kClient,
                    queue.now(), k, nr.seq,
                    static_cast<std::int64_t>(std::popcount(missing)),
                    static_cast<double>(deficit),
                    static_cast<double>(round));
        feedback.send(FeedbackMsg{nr}, cfg.feedback_bits);
        if (round >= cfg.recovery.max_retries) return;
        double timeout_s =
            cfg.recovery.rtt_timeout_mult * sim::to_seconds(rtt);
        for (std::size_t r = 0; r < round; ++r) {
            timeout_s *= cfg.recovery.backoff_base;
        }
        if (cfg.recovery.jitter_frac > 0.0) {
            const double u = nack_rng.uniform();
            timeout_s *= 1.0 + cfg.recovery.jitter_frac * (2.0 * u - 1.0);
        }
        queue.schedule_at(queue.now() + sim::from_seconds(timeout_s),
                          [this, k, round] { nack_check(k, round + 1); });
    }

    /// Sender's NACK handler: admission through the RepairScheduler, then
    /// immediate service, queueing, or shedding per the window's mode.
    void on_nack(const NackRequest& nr) {
        if (!repair.has_value()) return;  // only an undetected flip forges one
        ++nacks_received;
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
        const auto it = sent_frames.find(job.window);
        const bool retx_allowed =
            cfg.retransmit_critical && cfg.max_retransmits > 0;
        if (retx_allowed && job.missing != 0 && it != sent_frames.end()) {
            const std::size_t n = planner.window_ldus();
            const std::size_t span = std::min<std::size_t>(n, 64);
            for (std::size_t f = 0; f < span; ++f) {
                if ((job.missing & (std::uint64_t{1} << f)) == 0) continue;
                const SentFrame& sf = it->second[f];
                if (!sf.valid) continue;  // shed before sending: no material
                std::size_t total_bits = 0;
                for (const std::size_t s : sf.sizes) {
                    total_bits += s + kPacketHeaderBits;
                }
                const sim::SimTime arrive =
                    queue.now() + data.serialization_time(total_bits) +
                    cfg.data_link.propagation_delay;
                if (arrive >= playout.deadline(job.window * n + f)) {
                    ++nack_retx_skipped_deadline;
                    continue;
                }
                for (std::size_t frag = 0; frag < sf.sizes.size(); ++frag) {
                    DataPacket p = sf.prototype;
                    p.seq = next_seq++;
                    p.fragment = frag;
                    p.size_bits = sf.sizes[frag];
                    p.retransmission = true;
                    const std::size_t wire_bits =
                        p.size_bits + kPacketHeaderBits;
                    data.send_sideband(DataMsg{p}, wire_bits);
                    ++rep.retransmissions;
                    ++retx_pkts;
                    ++nack_retx_packets;
                    nack_retx_bits += wire_bits;
                }
            }
        }
        std::size_t repairs = 0;
        if (rlc_decoder.has_value()) {
            const std::size_t spend =
                std::min({job.rank_deficit, rlc_nack_credit,
                          cfg.recovery.max_repairs_per_nack});
            for (std::size_t i = 0; i < spend; ++i) {
                rlc_send_repair(rep);
                --rlc_nack_credit;
                ++repairs;
            }
            nack_repairs_sent += repairs;
        }
        ++nacks_serviced;
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

    struct PendingRetx {
        sim::SimTime ready;                  ///< earliest resend time (NACK received)
        sim::SimTime lost_at = 0;            ///< when the loss hit the wire
        std::size_t local_frame;
        DataPacket prototype;                ///< header template for the frame
        std::vector<std::size_t> fragments;  ///< fragment ids still missing
        std::vector<std::size_t> sizes;      ///< all fragment sizes of the frame
        std::size_t attempts = 0;
    };

    /// Resends the missing fragments of one critical frame; requeues on
    /// repeated loss while attempts remain.
    void service_retx(PendingRetx rx, sim::SimTime deadline, WindowReport& rep) {
        std::size_t total_bits = 0;
        for (const std::size_t f : rx.fragments) {
            total_bits += rx.sizes[f] + kPacketHeaderBits;
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
                    static_cast<double>(rx.fragments.size()));
        if (cfg.collect_metrics) {
            // NACK round trip + queueing behind the window's own traffic,
            // from the moment the loss hit the wire to the resend start.
            retx_latency_ms.add(
                static_cast<std::int64_t>((start - rx.lost_at) / 1'000'000));
        }
        // Resend every listed fragment, compacting the ones lost again to
        // the front of rx.fragments (in order) for the next attempt.
        std::size_t still_missing = 0;
        for (const std::size_t f : rx.fragments) {
            DataPacket p = rx.prototype;
            p.seq = next_seq++;
            p.fragment = f;
            p.size_bits = rx.sizes[f];
            p.retransmission = true;
            ++rep.retransmissions;
            if (!send_packet(p, rep)) rx.fragments[still_missing++] = f;
        }
        rx.fragments.resize(still_missing);
        if (still_missing > 0 && rx.attempts + 1 < cfg.max_retransmits) {
            PendingRetx again = std::move(rx);
            again.ready = data.next_free_time() +
                          2 * cfg.data_link.propagation_delay;
            ++again.attempts;
            pending_retx.push_back(std::move(again));
        }
    }

    /// Services every pending retransmission whose NACK has arrived by the
    /// link's current timeline position.
    void service_ready_retx(sim::SimTime deadline, WindowReport& rep) {
        for (std::size_t i = 0; i < pending_retx.size();) {
            if (pending_retx[i].ready <= data.next_free_time()) {
                PendingRetx rx = std::move(pending_retx[i]);
                pending_retx.erase(pending_retx.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                service_retx(std::move(rx), deadline, rep);
                i = 0;  // list may have changed; rescan
            } else {
                ++i;
            }
        }
    }

    /// Transmits buffer window k (invoked by the event queue at k*T).
    void send_window(std::size_t k) {
        const std::size_t n = planner.window_ldus();
        const std::vector<media::Frame>& frames = take_frames(k);
        const std::size_t adaptive_bound = cfg.estimator == EstimatorKind::kEwma
                                               ? estimator.bound()
                                               : sliding.bound();
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
                : adaptive_bound;
        const WindowPlan& plan = planner.plan(bound);
        const sim::SimTime deadline =
            static_cast<sim::SimTime>(k + 1) * cfg.window_duration();

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
                    static_cast<std::int64_t>(cfg.recovery.watchdog_windows));
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
        std::vector<bool>& sent_local = sent_local_scratch;
        sent_local.assign(n, false);
        pending_retx.clear();

        // CMT-style predictive shedding: budget the window's bits up front
        // (with a retransmission reserve) and pre-drop the lowest-priority
        // tail of the plan.
        std::vector<bool>& predropped = predropped_scratch;
        predropped.assign(n, false);
        if (cfg.drop_policy == DropPolicy::kPredictive) {
            const double budget = sim::to_seconds(cfg.window_duration()) *
                                  cfg.data_link.bandwidth_bps *
                                  (1.0 - cfg.predictive_reserve);
            double acc = 0.0;
            for (const WireEntry& entry : plan.order) {
                const media::Frame& frame = frames[entry.local_frame];
                net::fragment_sizes_into(frame.size_bits, cfg.packet_bits,
                                         frag_sizes_scratch);
                double bits = 0.0;
                for (const std::size_t s : frag_sizes_scratch) {
                    bits += static_cast<double>(s + kPacketHeaderBits);
                }
                if (acc + bits > budget) {
                    predropped[entry.local_frame] = true;
                } else {
                    acc += bits;
                }
            }
        }
        for (const WireEntry& entry : plan.order) {
            service_ready_retx(deadline, rep);

            if (predropped[entry.local_frame]) {
                ++rep.sender_dropped;
                trace_event(obs::EventType::kFrameDeadlineDrop,
                            obs::Actor::kServer, data.next_free_time(), k, 0,
                            static_cast<std::int64_t>(
                                frames[entry.local_frame].index));
                continue;
            }
            const media::Frame& frame = frames[entry.local_frame];
            // Sending a frame whose prerequisite was never sent wastes
            // bandwidth: the decoder cannot use it.
            bool prereqs_sent = true;
            for (const std::size_t q : planner.prerequisites()[entry.local_frame]) {
                if (!sent_local[q]) {
                    prereqs_sent = false;
                    break;
                }
            }
            if (!prereqs_sent) {
                ++rep.sender_dropped;
                trace_event(obs::EventType::kFrameDeadlineDrop,
                            obs::Actor::kServer, data.next_free_time(), k, 0,
                            static_cast<std::int64_t>(frame.index));
                continue;
            }

            net::fragment_sizes_into(frame.size_bits, cfg.packet_bits,
                                     frag_sizes_scratch);
            const std::vector<std::size_t>& sizes = frag_sizes_scratch;
            std::size_t total_bits = 0;
            for (const std::size_t s : sizes) total_bits += s + kPacketHeaderBits;
            if (data.next_free_time() + data.serialization_time(total_bits) >
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
            proto.num_fragments = sizes.size();

            std::vector<std::size_t>& lost = lost_scratch;
            lost.clear();
            for (std::size_t f = 0; f < sizes.size(); ++f) {
                DataPacket p = proto;
                p.seq = next_seq++;
                p.fragment = f;
                p.size_bits = sizes[f];
                if (!send_packet(p, rep)) lost.push_back(f);
            }
            sent_local[entry.local_frame] = true;
            ++layer_sent[entry.layer];

            if (recovery_on()) {
                // Keep the frame's wire material so a NACK can trigger its
                // retransmission; pruned when the window's playout budget
                // expires (finalize_window).  The oracle-driven PendingRetx
                // path below must stay cold: under the recovery plane only
                // received NACKs may trigger resends.
                auto& rec = sent_frames[k];
                if (rec.empty()) rec.resize(n);
                rec[entry.local_frame] = SentFrame{proto, sizes, true};
                continue;
            }
            if (!lost.empty() && entry.critical && cfg.retransmit_critical &&
                cfg.max_retransmits > 0) {
                PendingRetx rx;
                rx.ready = data.next_free_time() +
                           2 * cfg.data_link.propagation_delay;
                rx.lost_at = data.next_free_time();
                rx.local_frame = entry.local_frame;
                rx.prototype = proto;
                rx.fragments = lost;
                rx.sizes = sizes;
                pending_retx.push_back(std::move(rx));
            }
        }

        // Drain remaining retransmissions that can still make the deadline.
        while (!pending_retx.empty()) {
            auto earliest = std::min_element(
                pending_retx.begin(), pending_retx.end(),
                [](const PendingRetx& a, const PendingRetx& b) {
                    return a.ready < b.ready;
                });
            PendingRetx rx = std::move(*earliest);
            pending_retx.erase(earliest);
            service_retx(std::move(rx), deadline, rep);
        }

        WindowTrailer trailer;
        trailer.seq = next_seq++;
        trailer.window = k;
        trailer.layer_sent = layer_sent;
        data.send(DataMsg{trailer}, cfg.feedback_bits);

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
        Feedback f;
        f.seq = ++ack_seq;
        f.window = k;
        f.layer_max_burst = out.layer_max_burst;
        f.layer_lost = out.layer_lost;
        ++acks_sent;
        trace_event(obs::EventType::kAckSent, obs::Actor::kClient,
                    queue.now(), k, f.seq);
        feedback.send(FeedbackMsg{std::move(f)}, cfg.feedback_bits);
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
        const WindowOutcome out = receiver.finalize(k);
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
        meter.add_window(out.playback);
        trace_event(obs::EventType::kWindowFinalized, obs::Actor::kClient,
                    queue.now(), k, 0, static_cast<std::int64_t>(cr.clf),
                    cr.alf);

        if (recovery_on()) {
            // The ACK left at ack_window time; retransmission material for
            // this window can no longer be used.
            sent_frames.erase(k);
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
            ++acks_stale;
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
        ++acks_applied;
        feedback_window_ = f.window;
        trace_event(obs::EventType::kAckApplied, obs::Actor::kServer,
                    queue.now(), f.window, f.seq);
        if (!cfg.adaptive || cfg.pinned_bound != 0) return;
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
        const std::size_t old_sliding_bound = sliding.bound();
        if (governor.has_value()) {
            // Outlier-guarded Eq. 1 step (still fires the trace observer).
            governor->on_observation(observed, queue.now());
        } else {
            estimator.update(observed);  // fires the EWMA trace observer
        }
        sliding.update(observed);
        if (cfg.estimator == EstimatorKind::kSlidingMax) {
            trace_estimator_update(std::min(observed, sliding.window()),
                                   old_sliding_bound, sliding.bound());
        }
    }

    // ---- driver ------------------------------------------------------------

    SessionResult run() {
        reports.assign(cfg.num_windows, WindowReport{});
        for (std::size_t k = 0; k < cfg.num_windows; ++k) {
            queue.schedule_at(static_cast<sim::SimTime>(k) * cfg.window_duration(),
                              [this, k] { send_window(k); });
        }
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
        result.acks_sent = acks_sent;
        result.acks_applied = acks_applied;
        if (governor.has_value()) result.governor = governor->report();

        // Playout-judged continuity over the whole stream.
        const std::size_t n = planner.window_ldus();
        const std::size_t total_ldus = cfg.num_windows * n;
        const espread::LossMask playout_mask = playout.playback_mask(total_ldus);
        espread::ContinuityMeter playout_meter;
        for (std::size_t k = 0; k < cfg.num_windows; ++k) {
            const espread::LossMask window_mask(
                playout_mask.begin() + static_cast<std::ptrdiff_t>(k * n),
                playout_mask.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
            playout_meter.add_window(window_mask);
            result.playout_window_clf.push_back(
                espread::consecutive_loss(window_mask));
        }
        result.playout_total = playout_meter.total();
        result.required_startup = playout.required_startup_delay(total_ldus);

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

    /// Populates SessionResult::metrics from the finished run.
    void fill_metrics(SessionResult& result,
                      const espread::LossMask& playout_mask) const {
        obs::MetricsRegistry& m = result.metrics;
        m.add_counter("data_packets_sent", result.data_channel.sent);
        m.add_counter("data_packets_dropped", result.data_channel.dropped);
        m.add_counter("data_packets_delivered", result.data_channel.delivered);
        m.add_counter("data_bits_sent", result.data_channel.bits_sent);
        m.add_counter("feedback_packets_sent", result.feedback_channel.sent);
        m.add_counter("feedback_packets_dropped",
                      result.feedback_channel.dropped);
        m.add_counter("acks_sent", acks_sent);
        m.add_counter("acks_applied", acks_applied);
        m.add_counter("acks_stale", acks_stale);
        std::size_t playout_misses = 0;
        for (const bool ok : playout_mask) playout_misses += ok ? 0 : 1;
        m.add_counter("playout_misses", playout_misses);

        std::uint64_t retx = 0, dropped = 0, undecodable = 0;
        sim::Histogram& bounds = m.histogram("bound_used");
        sim::Histogram& clf = m.histogram("window_clf");
        sim::Histogram& burst = m.histogram("window_packet_burst");
        for (const WindowReport& w : result.windows) {
            retx += w.retransmissions;
            dropped += w.sender_dropped;
            undecodable += w.undecodable;
            bounds.add(static_cast<std::int64_t>(w.bound_used));
            clf.add(static_cast<std::int64_t>(w.clf));
            burst.add(static_cast<std::int64_t>(w.actual_packet_burst));
        }
        m.add_counter("retransmissions", retx);
        m.add_counter("frames_deadline_dropped", dropped);
        m.add_counter("frames_undecodable", undecodable);
        m.histogram("loss_run_length").merge(result.data_channel.loss_runs);
        m.histogram("retransmit_latency_ms").merge(retx_latency_ms);

        // Impairment accounting appears only when a fault plan is active,
        // so unimpaired metric registries stay byte-identical to pre-fault
        // builds (the zero-cost-off contract).
        if (cfg.data_impairment.active() || cfg.feedback_impairment.active()) {
            m.add_counter("data_packets_duplicated",
                          result.data_channel.duplicated);
            m.add_counter("data_packets_corrupt_rejected",
                          result.data_channel.corrupt_rejected);
            m.add_counter("data_packets_reordered",
                          result.data_channel.reordered);
            m.add_counter("data_packets_forced_dropped",
                          result.data_channel.forced_dropped);
            m.add_counter("feedback_corrupt_rejected",
                          result.feedback_channel.corrupt_rejected);
            m.add_counter("feedback_forced_dropped",
                          result.feedback_channel.forced_dropped);
            m.add_counter("recv_duplicates_dropped",
                          receiver.duplicates_dropped());
            m.add_counter("recv_stale_dropped", receiver.stale_dropped());
            m.add_counter("recv_mismatch_dropped",
                          receiver.mismatch_dropped());
        }

        // RLC accounting appears only for the coding schemes, keeping
        // uncoded registries byte-identical to pre-FEC builds.
        if (rlc_decoder.has_value()) {
            m.add_counter("rlc_repairs_sent", rlc_repairs_sent);
            m.add_counter("rlc_repairs_lost", rlc_repairs_lost);
            m.add_counter("rlc_repairs_redundant",
                          rlc_decoder->repairs_redundant());
            m.add_counter("rlc_repair_bits_sent", rlc_repair_bits);
            m.add_counter("rlc_packets_recovered", rlc_recovered);
            m.add_counter("rlc_packets_unrecovered",
                          rlc_decoder->symbols_lost());
            m.add_counter("rlc_rank", rlc_decoder->rank());
            m.add_counter("rlc_forged_rejected", rlc_forged_rejected);
            m.histogram("rlc_decode_delay_ms").merge(rlc_decode_delay_ms);
            m.histogram("rlc_in_order_delay_ms").merge(rlc_in_order_delay_ms);
        }

        // Governor accounting appears only when the governor is enabled,
        // for the same reason: ungoverned registries must stay
        // byte-identical to pre-governor builds.
        if (governor.has_value()) {
            const GovernorReport& g = governor->report();
            m.add_counter("governor_windows_normal", g.windows_in_state[0]);
            m.add_counter("governor_windows_degraded", g.windows_in_state[1]);
            m.add_counter("governor_windows_fallback", g.windows_in_state[2]);
            m.add_counter("governor_windows_recovering",
                          g.windows_in_state[3]);
            m.add_counter("governor_acks_rejected", g.acks_rejected());
            m.add_counter("governor_acks_rejected_duplicate",
                          g.acks_rejected_duplicate);
            m.add_counter("governor_acks_rejected_stale",
                          g.acks_rejected_stale);
            m.add_counter("governor_acks_rejected_future",
                          g.acks_rejected_future);
            m.add_counter("governor_observations_clamped",
                          g.observations_clamped);
            m.add_counter("governor_fallbacks", g.fallbacks);
            m.add_counter("governor_recoveries", g.recoveries);
            m.add_counter("governor_transitions", g.transitions);
            m.add_counter("governor_entries_normal", g.state_entries[0]);
            m.add_counter("governor_entries_degraded", g.state_entries[1]);
            m.add_counter("governor_entries_fallback", g.state_entries[2]);
            m.add_counter("governor_entries_recovering", g.state_entries[3]);
            m.add_counter("governor_longest_dwell_normal", g.longest_dwell[0]);
            m.add_counter("governor_longest_dwell_degraded",
                          g.longest_dwell[1]);
            m.add_counter("governor_longest_dwell_fallback",
                          g.longest_dwell[2]);
            m.add_counter("governor_longest_dwell_recovering",
                          g.longest_dwell[3]);
            // Per-window governed bound and supervision state; bound_used
            // in the per-window reports carries the same bound per window.
            sim::Histogram& governed = m.histogram("governor_bound");
            sim::Histogram& states = m.histogram("governor_state");
            for (const WindowReport& w : result.windows) {
                governed.add(static_cast<std::int64_t>(w.bound_used));
                states.add(static_cast<std::int64_t>(w.governor_state));
            }
        }

        // Recovery-plane accounting appears only when the plane is
        // enabled, so recovery-off registries stay byte-identical to
        // pre-recovery builds.
        if (repair.has_value()) {
            const RepairSchedulerReport& r = repair->report();
            m.add_counter("nack_requests_sent", nacks_sent);
            m.add_counter("nack_requests_received", nacks_received);
            m.add_counter("nack_requests_serviced", nacks_serviced);
            m.add_counter("nack_suppressed_budget", nacks_suppressed_budget);
            m.add_counter("nack_retx_packets", nack_retx_packets);
            m.add_counter("nack_retx_bits", nack_retx_bits);
            m.add_counter("nack_retx_skipped_deadline",
                          nack_retx_skipped_deadline);
            m.add_counter("nack_repairs_sent", nack_repairs_sent);
            m.add_counter("nack_credits_expired", nack_credits_expired);
            m.add_counter("recovery_nacks_admitted", r.nacks_admitted);
            m.add_counter("recovery_nacks_duplicate", r.nacks_duplicate);
            m.add_counter("recovery_nacks_invalid", r.nacks_invalid);
            m.add_counter("recovery_jobs_shed", r.jobs_shed);
            m.add_counter("recovery_jobs_expired", r.jobs_expired);
            m.add_counter("recovery_watchdog_timeouts", r.watchdog_timeouts);
            m.add_counter("recovery_windows_reactive", r.windows_reactive);
            m.add_counter("recovery_windows_suspended", r.windows_suspended);
            m.add_counter("recovery_windows_proactive", r.windows_proactive);
            m.add_counter("data_sideband_sent",
                          result.data_channel.sideband_sent);
            m.add_counter("data_sideband_bits",
                          result.data_channel.sideband_bits);
        }
    }

    SessionConfig cfg;
    sim::EventQueue queue;
    sim::Rng rng;
    Planner planner;
    Receiver receiver;
    espread::BurstEstimator estimator;
    espread::SlidingMaxEstimator sliding;
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
    std::vector<bool> sent_local_scratch;
    std::vector<bool> predropped_scratch;
    std::vector<std::size_t> frag_sizes_scratch;
    std::vector<std::size_t> lost_scratch;  ///< fragments lost on first send

    std::vector<WindowReport> reports;
    espread::ContinuityMeter meter;
    std::vector<PendingRetx> pending_retx;

    // Sliding-window RLC state (engaged iff cfg.rlc_active()).
    struct RlcSource {
        DataPacket header;            ///< for re-injection on recovery
        sim::SimTime expect_arrival;  ///< when a direct arrival would land
    };
    std::optional<fec::RlcDecoder> rlc_decoder;  ///< rank-only mode
    sim::Rng rlc_rng{0};  ///< lane kSessionLaneRlcCoefficients, coded only
    std::deque<RlcSource> rlc_sources;  ///< source indices [rlc_lo, rlc_next)
    std::uint64_t rlc_lo = 0;
    std::uint64_t rlc_next = 0;
    std::uint64_t rlc_frontier = 0;  ///< in-order log consumed up to here
    std::size_t rlc_in_order_consumed = 0;
    std::size_t rlc_credit = 0;
    std::size_t rlc_repairs_sent = 0;
    std::size_t rlc_repairs_lost = 0;
    std::size_t rlc_recovered = 0;
    std::uint64_t rlc_repair_bits = 0;
    std::uint64_t client_hi = 0;     ///< one past the highest witnessed index
    sim::SimTime client_hi_at = 0;   ///< when client_hi last advanced
    std::size_t rlc_forged_rejected = 0;  ///< coordinates the client refused
    sim::Histogram rlc_decode_delay_ms;    ///< loss -> decode, per recovery
    sim::Histogram rlc_in_order_delay_ms;  ///< extra in-order latency

    // Receiver-authoritative recovery plane (engaged iff
    // cfg.recovery.enabled; DESIGN.md §13).
    struct SentFrame {
        DataPacket prototype;             ///< header template for resends
        std::vector<std::size_t> sizes;   ///< fragment sizes of the frame
        bool valid = false;               ///< false = frame was never sent
    };
    std::optional<RepairScheduler> repair;
    sim::Rng nack_rng{0};  ///< lane kSessionLaneNackJitter, recovery only
    /// Wire material per open window, by local frame (NACK retransmission
    /// source); pruned when the window's playout budget expires.
    std::map<std::size_t, std::vector<SentFrame>> sent_frames;
    std::uint64_t nack_seq = 0;   ///< client NACK sequence space
    std::size_t rlc_nack_credit = 0;  ///< banked repairs a NACK may release
    std::size_t nacks_sent = 0;
    std::size_t nacks_received = 0;
    std::size_t nacks_serviced = 0;
    std::size_t nacks_suppressed_budget = 0;
    std::size_t nack_retx_packets = 0;
    std::uint64_t nack_retx_bits = 0;
    std::size_t nack_retx_skipped_deadline = 0;
    std::size_t nack_repairs_sent = 0;
    std::size_t nack_credits_expired = 0;

    std::uint64_t next_seq = 0;
    std::uint64_t ack_seq = 0;
    std::uint64_t last_ack_seq = 0;
    std::size_t acks_sent = 0;
    std::size_t acks_applied = 0;
    std::size_t acks_stale = 0;
    std::size_t packet_burst = 0;
    std::size_t feedback_window_ = 0;  ///< window of the last applied ACK
    sim::Histogram retx_latency_ms;    ///< loss -> resend start, milliseconds
};

Session::Session(SessionConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}
Session::~Session() = default;

SessionResult Session::run() { return impl_->run(); }

SessionResult run_session(SessionConfig cfg) {
    Session s{std::move(cfg)};
    return s.run();
}

}  // namespace espread::proto
