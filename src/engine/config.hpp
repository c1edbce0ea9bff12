// Configuration of the data-oriented multi-session engine (src/engine).
//
// The engine runs the paper's §4.2 adaptive window loop — k-CPO
// permutation, Gilbert packet loss, unspread, CLF measurement, Eq. 1
// feedback with the Fig. 6 ACK delay — for many concurrent sessions over
// structure-of-arrays state, instead of one discrete-event Session object
// per stream.  One EngineConfig fully determines a run: all randomness is
// derived from (seed, session id) via sim::derive_seed, so results are
// byte-identical across shard counts (pinned by test_engine).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "net/gilbert.hpp"

namespace espread::engine {

/// Seeded session arrival/departure model.  Lifetimes are
/// min + Geometric(mean excess) windows; after a departure the slot stays
/// idle for a Geometric(mean gap) number of windows before the next
/// session spawns (gap 0 = immediate respawn, keeping the active
/// population constant while still churning session identities).  Both
/// draws come from the departing/arriving session's own RNG stream, so
/// churn is independent of sharding.
struct ChurnConfig {
    bool enabled = false;
    std::size_t min_lifetime_windows = 16;   ///< floor on session length
    double mean_lifetime_windows = 64.0;     ///< mean session length (>= min)
    double mean_arrival_gap_windows = 0.0;   ///< mean idle windows per slot
};

/// Fleet telemetry plane (src/obs/telemetry).  When enabled the engine
/// gives every shard a TelemetrySlab and folds all slabs into an
/// immutable FleetSnapshot every `epoch_steps` engine steps.  A slab's
/// counters and CLF/bound histograms are the same per-range fold the
/// engine summary reads; its loss-run histogram is fed per run.  Disabled
/// (the default) the hot path pays exactly one null-check per
/// instrumentation site and the step loop stays allocation-free (pinned
/// by test_alloc).
struct TelemetryConfig {
    bool enabled = false;
    std::size_t epoch_steps = 64;  ///< engine steps per snapshot epoch
};

/// Window-scoped FEC-lite arm — the SoA pool's idealization of the
/// sliding-window RLC scheme (src/fec, DESIGN.md §12), reduced to what
/// fits the branch-light hot path.  After a window's n*f source packets
/// the sender appends floor(n*f*overhead_num/overhead_den) repair packets
/// through the same Gilbert chain (always sent: constant bandwidth,
/// shard-independent chain advance); the window's lost LDUs are repaired
/// before unspreading iff the surviving repairs cover the lost source
/// packets (the MDS all-or-nothing limit of the RLC decoder's rank
/// condition).  The Eq. 1 feedback still reports the *channel* burst, so
/// adaptation keeps tracking the network, not the post-repair stream.
/// Disabled (the default) the engine's numbers are byte-identical to a
/// build without this arm.
struct FecLiteConfig {
    bool enabled = false;
    std::size_t overhead_num = 1;   ///< repair packets per overhead_den sources
    std::size_t overhead_den = 10;

    /// NACK-lite: the pool's idealization of the receiver-authoritative
    /// recovery plane (DESIGN.md §13).  Instead of sending the window's
    /// repair accrual unconditionally, the slot *banks* it
    /// (control::bank_credits, capped at control::kCreditCap; overflow
    /// expires) and releases min(bank, lost packets) repairs only when a
    /// lossy window's NACK — piggybacked on the window's feedback packet,
    /// so the feedback chain still advances exactly once per window —
    /// survives the feedback channel.  After control::kWatchdogWindows
    /// consecutive lost feedback packets the slot reverts to the fixed
    /// proactive schedule until feedback returns (graceful degradation to
    /// the plain FEC-lite arm).  Off (the default), the arm is
    /// byte-identical to plain FEC-lite.
    bool nack = false;
};

/// Per-slot "governor-lite" supervision of the Eq. 1 feedback loop — the
/// SoA pool's counterpart of proto::AdaptationGovernor, reduced to what
/// fits a branch-light hot path: a missed-feedback watchdog driving
/// Normal -> Degraded -> Fallback -> Recovering -> Normal.  Degraded
/// decays the estimate toward the no-feedback prior (n/2); Fallback pins
/// it there; Recovering slew-limits the published bound by
/// control::kMaxStep per window until control::kRecoveryWindows
/// consecutive feedback windows restore Normal.  No hysteresis, outlier
/// guard or backoff (those live in the protocol governor).  Disabled (the
/// default) the engine's numbers are byte-identical to an unsupervised
/// run.
struct GovernorLiteConfig {
    bool enabled = false;
    /// Misses before Normal -> Degraded.
    static constexpr std::uint32_t kMissBudget = 3;
    /// Degraded misses before Fallback.
    static constexpr std::uint32_t kFallbackBudget = 3;
};

/// Full parameterization of a ShardedEngine run.  Defaults reproduce the
/// Fig. 8 setup: 24-LDU windows, two packets per LDU, Gilbert(0.92, 0.6)
/// on both the data and feedback paths, alpha = 1/2, feedback applied two
/// windows after the ACKed window (Fig. 6).
struct EngineConfig {
    std::size_t sessions = 1;   ///< concurrent session slots (pool capacity)
    std::size_t shards = 1;     ///< worker shards; 0 = hardware threads

    std::size_t window_ldus = 24;     ///< n: LDUs per buffer window
    std::size_t packets_per_ldu = 2;  ///< f: network packets per LDU
    bool spread = true;               ///< false = in-order comparison arm

    double alpha = 0.5;                       ///< Eq. 1 EWMA weight
    /// Fig. 6 ACK-to-effect lag: a window's ACK shapes the window this
    /// many windows later.  A constant, so the pending-feedback ring index
    /// is a compile-time modulus.
    static constexpr std::size_t kFeedbackDelayWindows = 2;

    net::GilbertParams data_loss{};      ///< server -> client packet channel
    net::GilbertParams feedback_loss{};  ///< client -> server ACK channel

    ChurnConfig churn{};
    TelemetryConfig telemetry{};
    FecLiteConfig fec{};
    GovernorLiteConfig governor{};

    std::uint64_t seed = 1;

    /// Throws std::invalid_argument on out-of-domain values.  Channel
    /// probabilities are validated here (not only in GilbertLoss) so the
    /// engine's noexcept hot path can respawn sessions without a throw
    /// path.
    void validate() const {
        if (sessions == 0) {
            throw std::invalid_argument("EngineConfig: sessions must be >= 1");
        }
        if (window_ldus == 0) {
            throw std::invalid_argument("EngineConfig: window_ldus must be >= 1");
        }
        if (packets_per_ldu == 0) {
            throw std::invalid_argument("EngineConfig: packets_per_ldu must be >= 1");
        }
        if (!(alpha >= 0.0 && alpha <= 1.0)) {
            throw std::invalid_argument("EngineConfig: alpha must be in [0, 1]");
        }
        if (churn.enabled) {
            if (churn.min_lifetime_windows == 0) {
                throw std::invalid_argument(
                    "EngineConfig: churn.min_lifetime_windows must be >= 1");
            }
            // Draws are Bernoulli loops with p = 1/(1 + mean), which never
            // end at p = 0, and are clamped to uint32 anyway.
            constexpr double kMaxMean = 4294967295.0;
            for (const double mean : {churn.mean_lifetime_windows,
                                      churn.mean_arrival_gap_windows}) {
                if (!std::isfinite(mean) || mean > kMaxMean) {
                    throw std::invalid_argument(
                        "EngineConfig: churn means must be finite and "
                        "<= 2^32 - 1");
                }
            }
        }
        if (fec.enabled && (fec.overhead_num == 0 || fec.overhead_den == 0)) {
            throw std::invalid_argument(
                "EngineConfig: fec overhead ratio terms must be >= 1");
        }
        if (fec.nack && !fec.enabled) {
            throw std::invalid_argument(
                "EngineConfig: fec.nack requires fec.enabled");
        }
        if (telemetry.enabled && telemetry.epoch_steps == 0) {
            throw std::invalid_argument(
                "EngineConfig: telemetry.epoch_steps must be >= 1");
        }
        const auto prob = [](double p) { return p >= 0.0 && p <= 1.0; };
        for (const net::GilbertParams& g : {data_loss, feedback_loss}) {
            if (!prob(g.p_good) || !prob(g.p_bad) || !prob(g.loss_good) ||
                !prob(g.loss_bad)) {
                throw std::invalid_argument(
                    "EngineConfig: channel probabilities must be in [0, 1]");
            }
        }
    }
};

}  // namespace espread::engine
