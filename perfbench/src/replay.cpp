#include "replay.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/cpo.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "fec/rlc.hpp"
#include "media/trace.hpp"
#include "net/fault.hpp"
#include "net/fragment.hpp"
#include "net/gilbert.hpp"
#include "protocol/codec.hpp"
#include "protocol/governor.hpp"
#include "protocol/planner.hpp"
#include "protocol/receiver.hpp"
#include "protocol/recovery.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace proto = espread::proto;
namespace media = espread::media;
namespace net = espread::net;
namespace sim = espread::sim;
namespace lanes = espread::contracts;

/// Results of replayed calls land here so no call can be optimised away.
std::size_t g_sink = 0;

/// How many of `total` events fall into slot `k` of `slots` when spread
/// as evenly as integers allow (the shares sum to `total`).
std::size_t share(std::size_t total, std::size_t slots, std::size_t k) {
    return total * (k + 1) / slots - total * k / slots;
}

/// Header bits the session charges per packet on top of its payload.
constexpr std::size_t kHeaderBits = 256;

/// Per-window frames of the stream, as the session's media source
/// produces them; MPEG generation is the media layer's timed work.
std::vector<std::vector<media::Frame>> replay_media(const proto::SessionConfig& cfg,
                                                    LayerTimes& t) {
    const std::size_t windows = cfg.num_windows;
    std::vector<std::vector<media::Frame>> frames(windows);
    if (cfg.stream.kind == proto::StreamKind::kMpeg) {
        media::TraceGenerator gen(media::movie_stats(cfg.stream.movie), cfg.seed);
        std::vector<media::Frame> scratch;
        for (std::size_t k = 0; k < windows; ++k) {
            const Clock::time_point t0 = Clock::now();
            gen.generate_into(cfg.gops_per_window, scratch);
            t.media += seconds_since(t0);
            frames[k] = scratch;
        }
        return frames;
    }
    // Dependency-free streams are generated whole at Session construction;
    // Session::run only slices them, so the run makes no media calls.
    const std::size_t n = cfg.window_ldus();
    const std::vector<media::Frame> all =
        cfg.stream.kind == proto::StreamKind::kMjpeg
            ? media::mjpeg_trace(windows * n, cfg.stream.mjpeg_mean_bits, cfg.seed)
            : media::audio_trace(windows * n);
    for (std::size_t k = 0; k < windows; ++k) {
        frames[k].assign(all.begin() + static_cast<std::ptrdiff_t>(k * n),
                         all.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    }
    return frames;
}

/// Playback-order mask with the window's recorded CLF as one run and its
/// remaining unit losses spread over the rest of the window.
espread::LossMask window_mask(std::size_t n, const proto::WindowReport& w) {
    espread::LossMask mask(n, true);
    const std::size_t lost = std::min(w.lost_ldus, n);
    const std::size_t run = std::min(w.clf, lost);
    for (std::size_t i = 0; i < run; ++i) mask[i] = false;
    const std::size_t rest = lost - run;
    if (rest > 0 && n > run + 1) {
        const std::size_t stride = std::max<std::size_t>((n - run - 1) / rest, 1);
        for (std::size_t j = 0, i = run + 1; j < rest && i < n; ++j, i += stride) {
            mask[i] = false;
        }
    }
    return mask;
}

void replay_core(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                 std::size_t noncritical, LayerTimes& t) {
    const std::size_t n = cfg.window_ldus();
    std::map<std::size_t, espread::Permutation> perms;
    std::vector<espread::LossMask> masks;
    for (const proto::WindowReport& w : r.windows) {
        const std::size_t b = std::min(std::max<std::size_t>(w.bound_used, 1), noncritical);
        if (perms.find(b) == perms.end()) {
            perms.emplace(b, espread::calculate_permutation(noncritical, b).perm);
        }
        masks.push_back(window_mask(n, w));
    }
    std::vector<std::size_t> order(noncritical);
    for (std::size_t i = 0; i < noncritical; ++i) order[i] = i;
    std::vector<std::size_t> tx, back;
    espread::BurstEstimator estimator(noncritical, cfg.alpha);
    espread::ContinuityMeter meter;
    // A governed session routes its Eq. 1 steps through the governor.
    const std::size_t updates = cfg.governor.enabled ? 0 : r.acks_applied;
    const std::size_t windows = r.windows.size();

    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < windows; ++k) {
        const proto::WindowReport& w = r.windows[k];
        const espread::ContinuityReport cr = espread::measure_continuity(masks[k]);
        g_sink += cr.clf;
        meter.add_window(masks[k]);
        const std::size_t b =
            std::min(std::max<std::size_t>(w.bound_used, 1), noncritical);
        const espread::Permutation& perm = perms.at(b);
        perm.apply_into(order, tx);
        perm.unapply_into(tx, back);
        g_sink += back[0];
        for (std::size_t u = share(updates, windows, k); u > 0; --u) {
            estimator.update(w.clf);
        }
    }
    t.core += seconds_since(t0);
    g_sink += estimator.bound() + meter.windows();
}

void replay_receiver(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                     const proto::Planner& planner,
                     const std::vector<const proto::WindowPlan*>& plans,
                     const std::vector<std::vector<media::Frame>>& frames,
                     LayerTimes& t) {
    const std::size_t windows = r.windows.size();
    std::vector<std::vector<proto::DataPacket>> packets(windows);
    std::vector<proto::WindowTrailer> trailers(windows);
    std::size_t total = 0;
    std::uint64_t seq = 0;
    for (std::size_t k = 0; k < windows; ++k) {
        for (const proto::WireEntry& e : plans[k]->order) {
            const media::Frame& f = frames[k][e.local_frame];
            const std::vector<std::size_t> sizes =
                net::fragment_sizes(f.size_bits, cfg.packet_bits);
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                proto::DataPacket p;
                p.seq = seq++;
                p.window = k;
                p.layer = e.layer;
                p.tx_pos = e.tx_pos;
                p.frame_index = f.index;
                p.fragment = i;
                p.num_fragments = sizes.size();
                p.size_bits = sizes[i];
                packets[k].push_back(p);
            }
        }
        total += packets[k].size();
        trailers[k].seq = seq++;
        trailers[k].window = k;
        trailers[k].layer_sent = plans[k]->layer_sizes;
    }
    // Calls the session made: data-path deliveries that were neither a
    // trailer nor an RLC repair, plus RLC-recovered packets re-injected.
    const auto& dc = r.data_channel;
    const double survive = ratio(static_cast<double>(dc.delivered),
                                 static_cast<double>(dc.sent));
    const double repairs_in =
        static_cast<double>(counter(r, "rlc_repairs_sent") - counter(r, "rlc_repairs_lost"));
    const double target =
        std::max(0.0, static_cast<double>(dc.delivered) -
                          survive * static_cast<double>(windows) - repairs_in) +
        static_cast<double>(counter(r, "rlc_packets_recovered"));
    const double q = ratio(target, static_cast<double>(total));
    const std::size_t nacks = counter(r, "nack_requests_sent");

    proto::Receiver rx(planner.window_ldus(), planner.layer_sizes(),
                       planner.prerequisites());
    rx.set_window_limit(windows);
    double acc = 0.0;
    sim::SimTime now = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < windows; ++k) {
        for (const proto::DataPacket& p : packets[k]) {
            for (acc += q; acc >= 1.0; acc -= 1.0) {
                rx.on_packet(p, now);
                now += 1000;
            }
        }
        rx.on_trailer(trailers[k]);
        if (cfg.recovery.enabled) {
            g_sink += rx.report(k).frames_received;
            for (std::size_t i = share(nacks, windows, k); i > 0; --i) {
                g_sink += static_cast<std::size_t>(rx.incomplete_frames(k) & 1u);
            }
        }
        g_sink += rx.finalize(k).frames_received;
    }
    t.receiver += seconds_since(t0);
}

/// Sends the session's recorded data and feedback traffic through a pair
/// of FaultChannels, window by window, and drains the event queue.
double replay_channels(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                       bool impaired) {
    const sim::Rng root(cfg.seed);
    const auto lane = [&root](std::uint64_t id) { return sim::Rng(root).split(id); };
    sim::EventQueue queue;
    net::FaultChannel<proto::DataPacket> data(queue, cfg.data_link, cfg.data_loss,
                                              lane(lanes::kSessionLaneDataChannel));
    net::FaultChannel<proto::Feedback> feedback(queue, cfg.feedback_link,
                                                cfg.feedback_loss,
                                                lane(lanes::kSessionLaneFeedbackChannel));
    if (impaired) {
        // Corruption is rejected outright here: its codec round trip is
        // the codec layer's replay.
        if (cfg.data_impairment.active()) {
            data.set_impairments(cfg.data_impairment,
                                 lane(lanes::kSessionLaneDataImpairment),
                                 [](const proto::DataPacket&, sim::Rng&) {
                                     return std::optional<proto::DataPacket>();
                                 });
        }
        if (cfg.feedback_impairment.active()) {
            feedback.set_impairments(cfg.feedback_impairment,
                                     lane(lanes::kSessionLaneFeedbackImpairment),
                                     [](const proto::Feedback&, sim::Rng&) {
                                         return std::optional<proto::Feedback>();
                                     });
        }
    }
    std::size_t arrivals = 0;
    data.set_receiver([&arrivals](proto::DataPacket) { ++arrivals; });
    feedback.set_receiver([&arrivals](proto::Feedback) { ++arrivals; });

    const auto& dc = r.data_channel;
    const std::size_t windows = r.windows.size();
    const std::size_t inband = dc.sent - dc.sideband_sent;
    const std::size_t bits = dc.sent > 0 ? dc.bits_sent / dc.sent : kHeaderBits;
    proto::DataPacket packet;
    packet.size_bits = bits - std::min(bits, kHeaderBits);
    proto::Feedback ack;
    ack.layer_max_burst.assign(2, 1);
    ack.layer_lost.assign(2, 1);
    const sim::SimTime period = cfg.window_duration();

    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < windows; ++k) {
        queue.run_until(static_cast<sim::SimTime>(k) * period);
        for (std::size_t i = share(inband, windows, k); i > 0; --i) {
            packet.seq++;
            data.send(packet, bits);
        }
        for (std::size_t i = share(dc.sideband_sent, windows, k); i > 0; --i) {
            packet.seq++;
            data.send_sideband(packet, bits);
        }
        for (std::size_t i = share(r.feedback_channel.sent, windows, k); i > 0; --i) {
            ack.seq++;
            feedback.send(ack, cfg.feedback_bits);
        }
    }
    queue.run();
    const double elapsed = seconds_since(t0);
    g_sink += arrivals;
    return elapsed;
}

/// Applies 1..max_flips random bit flips, as the session's corrupter does.
void flip_bits(std::vector<std::uint8_t>& bytes, sim::Rng& rng, std::size_t max_flips) {
    const std::uint64_t flips = rng.uniform_int(1, std::max<std::size_t>(max_flips, 1));
    for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t at = rng.uniform_int(0, bytes.size() - 1);
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
}

void replay_codec(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                  LayerTimes& t) {
    const std::size_t data_corrupt = r.data_channel.corrupt_rejected;
    const std::size_t feedback_corrupt = r.feedback_channel.corrupt_rejected;
    if (data_corrupt + feedback_corrupt == 0) return;
    proto::DataPacket packet;
    packet.window = 1;
    packet.num_fragments = 2;
    packet.size_bits = cfg.packet_bits;
    proto::Feedback ack;
    ack.layer_max_burst.assign(2, 1);
    ack.layer_lost.assign(2, 1);
    proto::NackRequest nack;
    nack.missing = 5;
    const double nack_share = ratio(static_cast<double>(counter(r, "nack_requests_sent")),
                                    static_cast<double>(r.feedback_channel.sent));
    // The session draws its bit flips from the impairment lane.
    sim::Rng rng = sim::Rng(cfg.seed).split(lanes::kSessionLaneDataImpairment);
    double acc = 0.0;

    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < data_corrupt; ++i) {
        std::vector<std::uint8_t> bytes = proto::encode(packet);
        flip_bits(bytes, rng, cfg.data_impairment.corrupt_max_bit_flips);
        g_sink += proto::decode_data(bytes).has_value() +
                  proto::decode_trailer(bytes).has_value() +
                  proto::decode_repair(bytes).has_value();
    }
    for (std::size_t i = 0; i < feedback_corrupt; ++i) {
        acc += nack_share;
        const bool is_nack = acc >= 1.0;
        if (is_nack) acc -= 1.0;
        std::vector<std::uint8_t> bytes =
            is_nack ? proto::encode(nack) : proto::encode(ack);
        flip_bits(bytes, rng, cfg.feedback_impairment.corrupt_max_bit_flips);
        g_sink += proto::decode_feedback(bytes).has_value();
        if (cfg.recovery.enabled) g_sink += proto::decode_nack(bytes).has_value();
    }
    t.codec += seconds_since(t0);
}

void replay_fec(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                LayerTimes& t) {
    if (!cfg.rlc_active()) return;
    const auto& dc = r.data_channel;
    std::size_t retx_inband = 0;
    if (!cfg.recovery.enabled) {
        for (const proto::WindowReport& w : r.windows) retx_inband += w.retransmissions;
    }
    const std::size_t overhead = dc.sideband_sent + r.windows.size() + retx_inband;
    const std::size_t sources = dc.sent > overhead ? dc.sent - overhead : 0;
    const std::size_t repairs = counter(r, "rlc_repairs_sent");
    const std::size_t repairs_lost = counter(r, "rlc_repairs_lost");
    if (sources == 0) return;
    // Source survival follows the session's Gilbert channel; repair
    // survival is spread evenly at the recorded share.
    std::vector<bool> source_ok(sources);
    net::GilbertLoss chain(cfg.data_loss,
                          sim::Rng(cfg.seed).split(lanes::kSessionLaneDataChannel));
    for (std::size_t i = 0; i < sources; ++i) source_ok[i] = !chain.drop_next();
    const double per_source = ratio(static_cast<double>(repairs), static_cast<double>(sources));
    const double repair_ok = 1.0 - ratio(static_cast<double>(repairs_lost),
                                         static_cast<double>(repairs));
    // The session builds no encoder: per repair it draws one coefficient
    // seed from its RLC lane and sends the elastic window's coordinates;
    // the receiving side is a rank-only decoder.
    const std::uint64_t window = cfg.rlc.window_packets;
    sim::Rng coefficients = sim::Rng(cfg.seed).split(lanes::kSessionLaneRlcCoefficients);
    espread::fec::RlcDecoder decoder(window, 0);
    double credit = 0.0, delivered = 0.0;
    double at = 0.0;

    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < sources; ++i) {
        if (source_ok[i]) decoder.add_source(i, nullptr, 0, at);
        const std::uint64_t next = i + 1;
        const std::uint64_t base = next > window ? next - window : 0;
        for (credit += per_source; credit >= 1.0; credit -= 1.0) {
            const std::uint64_t cseed = coefficients.next_u64();
            delivered += repair_ok;
            if (delivered >= 1.0) {
                delivered -= 1.0;
                g_sink += decoder.add_repair(base, static_cast<std::size_t>(next - base),
                                             cseed, nullptr, 0, at);
            }
        }
        at += 1e-3;
    }
    decoder.close(at);
    t.fec += seconds_since(t0);
    g_sink += decoder.rank();
}

void replay_recovery(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                     LayerTimes& t) {
    if (!cfg.recovery.enabled) return;
    const std::size_t windows = r.windows.size();
    const std::size_t nacks = counter(r, "nack_requests_received");
    const std::size_t alive = r.feedback_channel.delivered;
    const sim::SimTime period = cfg.window_duration();
    proto::RepairScheduler scheduler(cfg.recovery, windows);
    std::uint64_t seq = 0;

    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < windows; ++k) {
        const sim::SimTime now = static_cast<sim::SimTime>(k) * period;
        scheduler.on_window_start(
            k, cfg.governor.enabled
                   ? std::optional<proto::GovernorState>(r.windows[k].governor_state)
                   : std::nullopt);
        for (std::size_t i = share(alive, windows, k); i > 0; --i) {
            scheduler.on_feedback_alive();
        }
        const std::size_t offered = share(nacks, windows, k);
        for (std::size_t i = 0; i < offered; ++i) {
            proto::NackRequest n;
            n.seq = ++seq;
            n.window = k > 0 ? k - 1 : 0;
            n.missing = 1;
            n.rank_deficit = 1;
            n.retry = i;
            auto job = scheduler.admit(n, now + 2 * period, now);
            if (!job) continue;
            if (scheduler.may_service_now()) {
                scheduler.note_serviced();
            } else {
                g_sink += scheduler.enqueue(*job).has_value();
            }
        }
        while (scheduler.next_job(now)) scheduler.note_serviced();
    }
    t.recovery += seconds_since(t0);
    g_sink += scheduler.queued();
}

void replay_governor(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                     std::size_t noncritical, LayerTimes& t) {
    if (!cfg.governor.enabled) return;
    const std::size_t windows = r.windows.size();
    const std::size_t acks = r.acks_applied + r.governor.acks_rejected();
    espread::BurstEstimator estimator(noncritical, cfg.alpha);
    proto::AdaptationGovernor governor(cfg.governor, estimator);
    std::uint64_t seq = 0;

    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < windows; ++k) {
        if (k + 1 == windows) governor.close_stream();
        g_sink += governor.on_window_start(k);
        for (std::size_t i = share(acks, windows, k); i > 0; --i) {
            const std::size_t reported = k >= 2 ? k - 2 : 0;
            if (!governor.admit_ack(reported, ++seq).has_value()) {
                governor.on_observation(r.windows[reported].clf);
            }
        }
    }
    t.governor += seconds_since(t0);
}

}  // namespace

void LayerTimes::add(const LayerTimes& o) noexcept {
    media += o.media;
    planner += o.planner;
    core += o.core;
    receiver += o.receiver;
    channel += o.channel;
    fault += o.fault;
    codec += o.codec;
    fec += o.fec;
    recovery += o.recovery;
    governor += o.governor;
}

LayerTimes replay_layers(const proto::SessionConfig& cfg,
                         const proto::SessionResult& result) {
    LayerTimes t;
    const std::vector<std::vector<media::Frame>> frames = replay_media(cfg, t);

    // Planner construction (and the poset work inside it) is Session
    // construction; only the per-window plan() calls are run time.
    proto::Planner planner(cfg);
    std::vector<const proto::WindowPlan*> plans;
    const Clock::time_point t0 = Clock::now();
    for (const proto::WindowReport& w : result.windows) {
        plans.push_back(&planner.plan(w.bound_used));
    }
    t.planner += seconds_since(t0);

    const std::size_t noncritical = std::max<std::size_t>(planner.noncritical_size(), 1);
    replay_core(cfg, result, noncritical, t);
    replay_receiver(cfg, result, planner, plans, frames, t);
    const double plain = replay_channels(cfg, result, false);
    const double impaired = replay_channels(cfg, result, true);
    t.channel += plain;
    t.fault += impaired - plain;
    replay_codec(cfg, result, t);
    replay_fec(cfg, result, t);
    replay_recovery(cfg, result, t);
    replay_governor(cfg, result, noncritical, t);
    return t;
}

}  // namespace perfbench
