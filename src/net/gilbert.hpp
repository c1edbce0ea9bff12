// Two-state Markov (Gilbert) packet-loss model (paper §5.1, Fig. 7).
//
// The network alternates between a GOOD state (packets delivered) and a BAD
// state (packets dropped).  From GOOD it stays with probability p_good;
// from BAD it stays with probability p_bad.  Because p_bad is large in the
// paper's experiments (0.6 / 0.7), losses arrive in bursts — exactly the
// error pattern error spreading targets.  The chain starts in GOOD and
// steps once per packet.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/rng.hpp"

namespace espread::net {

/// Stay-probabilities of the two states, plus per-state drop probabilities.
///
/// The defaults (loss_good = 0, loss_bad = 1) give the paper's classic
/// Gilbert model: GOOD always delivers, BAD always drops.  Setting them to
/// intermediate values yields the Gilbert–Elliott generalization, where
/// each state only biases the drop probability — useful for modelling
/// residual loss on "good" paths and partial delivery inside congestion
/// episodes.
struct GilbertParams {
    double p_good = 0.92;   ///< P(stay GOOD | GOOD); paper uses 0.92
    double p_bad = 0.6;     ///< P(stay BAD | BAD); paper varies 0.6 / 0.7
    double loss_good = 0.0; ///< P(drop | GOOD)
    double loss_bad = 1.0;  ///< P(drop | BAD)
};

enum class GilbertState : std::uint8_t { kGood, kBad };

/// Everything about a Gilbert chain that depends only on its parameters:
/// the validated probabilities and, per state, log(stay), the emission
/// kind and a sojourn threshold table.  Immutable once built.  Chains
/// share one model per distinct parameter set (intern()), so a chain
/// carries a pointer to its ~3 KB model, not the model itself.
///
/// Sojourns are sampled by inversion: a 53-bit draw m (the bits
/// Rng::uniform() uses) gives dwell = 1 + floor(log1p(-m 2^-53) / log(stay)),
/// so P(dwell = k) = stay^(k-1) (1 - stay), the step-by-step chain's
/// distribution.  The dwell is non-decreasing in m, so the table holds,
/// for k = 1..64, T_k = the smallest m whose dwell exceeds k, found once
/// per model from 1 - stay^k plus a short walk over the evaluated
/// formula.  A draw below T_64 reads its dwell off the table as
/// 1 + #{k : T_k <= m} with no logarithm; the rare draw above it
/// evaluates the formula.  The count starts from a bucket table:
/// start[j] = #{k : T_k <= j 2^43} for the 1024 buckets of the draw's top
/// ten bits, a lower bound on the count for every draw in bucket j, so
/// the count is start[m >> 43] plus a forward walk that, for the
/// paper's stays, takes about one comparison.  Both paths give the
/// formula's value for every draw, so streams are exactly those of
/// evaluating it each time.  That rests on the library log1p being
/// monotone; test_gilbert checks every draw within 4096 of each threshold
/// and within 64 of each bucket edge for ten stay probabilities, plus 3M
/// random draws.
class GilbertModel {
public:
    static constexpr std::size_t kTableSize = 64;
    /// Draws are 53-bit; a threshold of kDrawSpan is never reached.
    static constexpr std::uint64_t kDrawSpan = std::uint64_t{1} << 53;
    /// A draw's bucket is its top kBucketBits bits.
    static constexpr unsigned kBucketBits = 10;
    static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
    static constexpr unsigned kBucketShift = 53 - kBucketBits;

    /// Per-state sampling data.
    struct StateModel {
        double log_stay = 0.0;          ///< log(stay); used off the table
        std::uint64_t fixed_dwell = 0;  ///< 1 (stay 0), max (stay 1), 0 = drawn
        double loss = 0.0;              ///< P(drop) in this state
        bool classic = true;            ///< loss is 0 or 1: no per-packet draw
        bool lost = false;              ///< the classic outcome
    };

    /// Throws std::invalid_argument unless all four probabilities are in
    /// [0, 1].
    explicit GilbertModel(GilbertParams params);

    /// The shared model for `params`, built on first use and kept for the
    /// process lifetime (one per distinct bit pattern of the four
    /// probabilities).  Thread-safe; call it when a chain is built, never
    /// per packet.  Throws like the constructor.
    static const GilbertModel& intern(const GilbertParams& params);

    const GilbertParams& params() const noexcept { return params_; }
    const StateModel& state(GilbertState s) const noexcept {
        return states_[static_cast<std::size_t>(s)];
    }
    /// T_1..T_64 of state `s`.
    const std::array<std::uint64_t, kTableSize>& threshold(
        GilbertState s) const noexcept {
        return threshold_[static_cast<std::size_t>(s)];
    }

    /// start[j] of state `s`: how many thresholds are <= j 2^43.
    const std::array<std::uint8_t, kBuckets>& bucket_start(
        GilbertState s) const noexcept {
        return start_[static_cast<std::size_t>(s)];
    }

    /// The dwell (>= 1 packets) a 53-bit draw `m` gives in state `s`, for a
    /// state whose sojourn is drawn (fixed_dwell == 0).
    std::uint64_t dwell(GilbertState s, std::uint64_t m) const noexcept {
        const std::uint64_t* t = threshold(s).data();
        std::size_t n = bucket_start(s)[m >> kBucketShift];
        while (n < kTableSize && t[n] <= m) ++n;
        if (n == kTableSize) return formula_dwell(state(s).log_stay, m);
        return 1 + n;
    }

    /// Samples a sojourn of state `s`: one draw from `rng` unless the
    /// state's stay probability is 0 or 1.
    std::uint64_t sample_dwell(GilbertState s, sim::Rng& rng) const noexcept {
        const std::uint64_t fixed = state(s).fixed_dwell;
        if (fixed != 0) return fixed;
        return dwell(s, rng.next_u64() >> 11);
    }

private:
    /// 1 + floor(log1p(-m 2^-53) / log_stay), capped to the uint64 range.
    static std::uint64_t formula_dwell(double log_stay,
                                       std::uint64_t m) noexcept;

    // Both states' scalars share one cache line, read on every packet;
    // the tables are read once per sojourn.
    alignas(64) std::array<StateModel, 2> states_{};
    std::array<std::array<std::uint64_t, kTableSize>, 2> threshold_{};
    std::array<std::array<std::uint8_t, kBuckets>, 2> start_{};
    GilbertParams params_;
};

/// Per-packet loss process: a shared GilbertModel plus this chain's RNG,
/// state and the packets left in the current sojourn.
///
/// Implementation note: rather than one Bernoulli draw per packet to decide
/// "stay or leave", the chain samples the whole geometric sojourn (dwell
/// time) of each state when the state is entered, then merely decrements a
/// counter per packet.  The dwell distribution is identical to the
/// step-by-step chain, so all statistics are unchanged, but the per-packet
/// hot path costs one RNG draw and one table search per *burst/gap*
/// instead of per packet (for the classic emission probabilities, zero
/// per-packet draws).  Determinism per (params, seed) is preserved.
class GilbertLoss {
public:
    using State = GilbertState;

    /// Throws std::invalid_argument unless both probabilities are in [0, 1].
    GilbertLoss(GilbertParams params, sim::Rng rng);

    /// Restarts the chain (GOOD, no sojourn drawn) on a new generator,
    /// keeping its model: what constructing a new chain with the same
    /// params would give, without the model lookup.
    void reseed(sim::Rng rng) noexcept {
        rng_ = rng;
        remaining_ = 0;
        state_ = State::kGood;
    }

    /// Steps the chain by one packet; returns true if that packet is lost
    /// (i.e. the chain was in BAD while the packet crossed the link).
    bool drop_next() noexcept {
        // The packet experiences the current state, then the chain
        // transitions (here: the sojourn counter expires).  The degenerate
        // emission probabilities (the classic Gilbert defaults) avoid a
        // per-packet RNG draw so classic-model streams are unchanged by
        // the Gilbert–Elliott extension.
        if (remaining_ == 0) remaining_ = model_->sample_dwell(state_, rng_);
        const GilbertModel::StateModel& s = model_->state(state_);
        const bool lost = s.classic ? s.lost : rng_.bernoulli(s.loss);
        if (--remaining_ == 0) leave_state();
        return lost;
    }

    /// A maximal span of consecutive packets with one shared outcome.
    struct Run {
        std::uint64_t length = 0;  ///< packets covered (>= 1)
        bool lost = false;         ///< outcome of every packet in the span
    };

    /// Batched sampling for the multi-session engine: advances the chain by
    /// up to `max_packets` (>= 1) packets that all share one outcome and
    /// returns the span.  For the classic emission probabilities (the
    /// per-state drop probability is 0 or 1) this consumes a whole sojourn
    /// remainder per call; a non-degenerate emission falls back to
    /// one-packet runs so the per-packet Bernoulli draws are preserved.
    /// Equivalence contract: consuming runs yields exactly the drop_next()
    /// stream of the same seeded chain (pinned by test_gilbert).
    Run next_run(std::uint64_t max_packets) noexcept {
        if (remaining_ == 0) remaining_ = model_->sample_dwell(state_, rng_);
        const GilbertModel::StateModel& s = model_->state(state_);
        if (!s.classic) return Run{1, drop_next()};
        const std::uint64_t len =
            remaining_ < max_packets ? remaining_ : max_packets;
        remaining_ -= len;
        if (remaining_ == 0) leave_state();
        return {len, s.lost};
    }

    State state() const noexcept { return state_; }
    const GilbertParams& params() const noexcept { return model_->params(); }

    /// Long-run fraction of packets lost:
    /// pi_bad * loss_bad + pi_good * loss_good, where
    /// pi_bad = (1 - p_good) / ((1 - p_good) + (1 - p_bad)).
    static double stationary_loss(const GilbertParams& p) noexcept;

    /// Mean length of a loss burst for the CLASSIC emissions
    /// (loss_good = 0, loss_bad = 1): 1 / (1 - p_bad).
    static double mean_burst_length(const GilbertParams& p) noexcept;

private:
    void leave_state() noexcept {
        state_ = state_ == State::kGood ? State::kBad : State::kGood;
    }

    const GilbertModel* model_;
    sim::Rng rng_;
    std::uint64_t remaining_ = 0;  ///< packets left in the current sojourn
    State state_ = State::kGood;
};

}  // namespace espread::net
