// Deterministic fault-injection layer over Channel<Msg>.
//
// The paper's protocol runs over raw UDP (§4.2), so in-order Gilbert drops
// are only the start of the threat model: real datagram paths also reorder,
// duplicate, corrupt and jitter packets, and outages kill whole spans of
// traffic.  FaultChannel wraps Channel<Msg> and injects exactly those
// pathologies, driven by its own seeded sim::Rng so an impaired run is a
// pure function of (config, seed) — the same determinism contract the
// Monte-Carlo runner guarantees across thread counts.
//
// Zero-cost-off contract: with an inactive ImpairmentConfig (all rates
// zero, no blackout) FaultChannel::send is a direct delegate — no RNG
// draws, no timing changes, no extra trace events — so every unimpaired
// simulation is byte-identical to one run on a bare Channel.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "sim/rng.hpp"

namespace espread::net {

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

    /// True if any impairment can fire.  Inactive configs make FaultChannel
    /// a pass-through (the zero-cost-off contract).
    bool active() const noexcept;

    /// Throws std::invalid_argument on out-of-range rates or malformed
    /// blackouts.
    void validate() const;
};

/// Channel<Msg> plus deterministic impairments.  Exposes the full Channel
/// surface so protocol endpoints are written once against either.
template <typename Msg>
class FaultChannel {
public:
    using Receiver = typename Channel<Msg>::Receiver;
    /// Applies a corruption to one message (e.g. encode -> flip bits ->
    /// decode through the wire codec).  Returns the corrupted message, or
    /// nullopt when the corruption is detected (checksum) and the packet
    /// must be rejected.
    using Corrupter = std::function<std::optional<Msg>(const Msg&, sim::Rng&)>;

    FaultChannel(sim::EventQueue& queue, LinkConfig link, GilbertParams loss,
                 sim::Rng link_rng)
        : inner_(queue, link, loss, std::move(link_rng)) {}

    /// Installs the impairment plan.  `fault_rng` drives every impairment
    /// decision (independent of the link's loss process so enabling faults
    /// does not shift the Gilbert stream).  Validates `cfg`; an inactive
    /// config keeps the channel in pass-through mode.
    void set_impairments(ImpairmentConfig cfg, sim::Rng fault_rng,
                         Corrupter corrupter = nullptr) {
        cfg.validate();
        cfg_ = std::move(cfg);
        rng_ = fault_rng;
        corrupter_ = std::move(corrupter);
        active_ = cfg_.active();
    }

    bool send(Msg msg, std::size_t size_bits) {
        const SendFaults f = active_ ? draw_faults(msg, size_bits) : SendFaults{};
        return inner_.send(std::move(msg), size_bits, f);
    }

    /// Side-band variant of send(): same impairment draws, but the inner
    /// channel is told not to occupy the link (see Channel::send_sideband).
    bool send_sideband(Msg msg, std::size_t size_bits) {
        const SendFaults f = active_ ? draw_faults(msg, size_bits) : SendFaults{};
        return inner_.send_sideband(std::move(msg), size_bits, f);
    }

  private:
    /// Rolls the impairment dice for one outgoing message, possibly
    /// mutating the payload in place (corruption with a corrupter hook).
    SendFaults draw_faults(Msg& msg, std::size_t size_bits) {
        SendFaults f;
        f.force_drop = blacked_out(inner_.next_free_time());
        // Draw order is fixed (corrupt, duplicate, reorder, jitter) and
        // each draw is gated on its own rate, so a mix's realization is a
        // deterministic function of (config, seed).
        if (!f.force_drop) {
            if (cfg_.corrupt_rate > 0.0 && rng_.bernoulli(cfg_.corrupt_rate)) {
                if (corrupter_) {
                    std::optional<Msg> mutated = corrupter_(msg, rng_);
                    if (mutated.has_value()) {
                        msg = std::move(*mutated);
                    } else {
                        f.corrupt_rejected = true;
                    }
                } else {
                    f.corrupt_rejected = true;
                }
            }
            if (!f.corrupt_rejected) {
                if (cfg_.duplicate_rate > 0.0 &&
                    rng_.bernoulli(cfg_.duplicate_rate)) {
                    f.duplicate = true;
                    f.duplicate_delay = ImpairmentConfig::kDuplicateDelay;
                }
                if (cfg_.reorder_rate > 0.0 &&
                    rng_.bernoulli(cfg_.reorder_rate)) {
                    const std::uint64_t d = rng_.uniform_int(
                        1, ImpairmentConfig::kReorderMaxDisplacement);
                    f.reordered = true;
                    f.extra_delay += static_cast<sim::SimTime>(d) *
                                     inner_.serialization_time(size_bits);
                }
                if (cfg_.jitter_rate > 0.0 && cfg_.jitter_max > 0 &&
                    rng_.bernoulli(cfg_.jitter_rate)) {
                    f.extra_delay += static_cast<sim::SimTime>(
                        rng_.uniform_int(0, static_cast<std::uint64_t>(
                                                cfg_.jitter_max)));
                }
            }
        }
        return f;
    }

  public:
    // ---- Channel surface (delegated) ----------------------------------
    void set_receiver(Receiver r) { inner_.set_receiver(std::move(r)); }
    void set_trace(obs::TraceSink* sink, obs::Actor actor) noexcept {
        inner_.set_trace(sink, actor);
    }
    sim::SimTime next_free_time() const noexcept {
        return inner_.next_free_time();
    }
    void stall_until(sim::SimTime t) noexcept { inner_.stall_until(t); }
    sim::SimTime serialization_time(std::size_t size_bits) const noexcept {
        return inner_.serialization_time(size_bits);
    }
    ChannelStats stats() const { return inner_.stats(); }
    std::size_t in_flight_slots() const noexcept {
        return inner_.in_flight_slots();
    }

    bool impaired() const noexcept { return active_; }

private:
    bool blacked_out(sim::SimTime depart) const noexcept {
        for (const Blackout& b : cfg_.blackouts) {
            if (depart >= b.from && depart < b.to) return true;
        }
        return false;
    }

    Channel<Msg> inner_;
    ImpairmentConfig cfg_;
    sim::Rng rng_{0};
    Corrupter corrupter_;
    bool active_ = false;
};

}  // namespace espread::net
