// Structure-of-arrays session pool — the engine's hot data.
//
// Per-session state (Gilbert chains, Eq. 1 estimate, pending-feedback
// ring, churn counters, metric accumulators) lives in parallel arrays
// indexed by slot, not in per-session objects.  A window step walks a
// contiguous slot range touching only these arenas plus a per-shard
// scratch buffer, so the steady-state path performs zero heap
// allocations (pinned by test_alloc) and shards never write to shared
// cache lines.
//
// Determinism contract: every random draw of slot s in its g-th occupancy
// comes from the stream seeded by derive_seed(seed, g * capacity + s), and
// all accumulators are integers merged in slot/shard order, so summaries
// are byte-identical for any shard count (pinned by test_engine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/permutation.hpp"
#include "engine/config.hpp"
#include "engine/governor_lite.hpp"
#include "net/gilbert.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/slab.hpp"
#include "sim/stats.hpp"

namespace espread::engine {

/// Per-shard working memory: the packed loss-mask scratch words plus the
/// distribution accumulators that would be wasteful per slot.  All counts
/// are integers, and histograms are flat arrays merged by addition, so
/// folding shards in index order yields grouping-independent totals.
struct ShardScratch {
    std::vector<std::uint64_t> tx_words;   ///< transmission-order loss bits
    std::vector<std::uint64_t> pb_words;   ///< playback-order loss bits
    std::vector<std::uint64_t> clf_hist;   ///< bin v = windows with CLF == v
    std::vector<std::uint64_t> bound_hist; ///< bin b = windows sent with bound b
    std::uint64_t idle_windows = 0;        ///< slot-windows spent unoccupied
    /// Telemetry plane sink for this shard; null when telemetry is off.
    /// Every use in the hot path is null-gated (one predictable branch),
    /// so the disabled step loop stays allocation-free and unperturbed.
    obs::telemetry::TelemetrySlab* telemetry = nullptr;
};

/// Everything summarize() derives from the arenas.  Doubles are computed
/// from integer totals in a fixed order, so they too are bit-identical
/// across shard counts.
struct EngineSummary {
    std::size_t sessions = 0;          ///< pool capacity (slots)
    std::size_t active_sessions = 0;   ///< slots occupied at summary time
    std::uint64_t windows = 0;         ///< session-windows executed
    std::uint64_t slots = 0;           ///< LDU playback slots (windows * n)
    std::uint64_t unit_losses = 0;     ///< lost LDU slots
    std::uint64_t idle_windows = 0;    ///< churn gaps (no session in slot)
    double alf = 0.0;                  ///< unit_losses / slots
    double clf_mean = 0.0;             ///< mean per-window CLF
    double clf_dev = 0.0;              ///< population std-dev of window CLF
    std::uint64_t clf_max = 0;         ///< worst window CLF seen
    std::uint64_t acks_delivered = 0;  ///< feedback packets that survived
    std::uint64_t acks_lost = 0;       ///< feedback packets dropped
    std::uint64_t sessions_spawned = 0;
    std::uint64_t sessions_completed = 0;
    /// Windows run under each governor-lite state (all in [0] = Normal
    /// when supervision is off).  Reconciles with the telemetry plane's
    /// TelemetryCounters::governor_windows (pinned by test_telemetry).
    std::uint64_t governor_windows[4] = {0, 0, 0, 0};
    std::uint64_t governor_transitions = 0;  ///< governor-lite state changes
    /// FEC-lite arm (all zero, and absent from summary_json, when off).
    bool fec = false;                        ///< arm enabled this run
    std::uint64_t fec_repair_packets = 0;    ///< repair packets sent
    std::uint64_t fec_windows_recovered = 0; ///< lossy windows fully repaired
    std::uint64_t fec_windows_unrecovered = 0;  ///< lossy windows left coded-out
    /// NACK-lite arm (all zero, and absent from summary_json, when off).
    bool nack = false;                        ///< receiver-driven repair on
    std::uint64_t nack_requests_sent = 0;     ///< lossy reactive windows
    std::uint64_t nack_requests_lost = 0;     ///< NACKs the channel dropped
    std::uint64_t nack_repair_packets = 0;    ///< banked repairs released
    std::uint64_t nack_credits_expired = 0;   ///< accrual lost to the cap
    std::uint64_t nack_windows_proactive = 0; ///< watchdog-degraded windows
    sim::Histogram clf_histogram;      ///< per-window CLF distribution
    sim::Histogram bound_histogram;    ///< Eq. 1 bound usage distribution
    obs::MetricsRegistry metrics;      ///< filled when collect_metrics
};

/// SoA arenas plus the batched window step.  Thread-safety: disjoint slot
/// ranges may run concurrently (each slot's state is written only by the
/// shard that owns its range); construction and summarize() are
/// single-threaded.
class SessionPool {
public:
    /// Validates `cfg`, sizes every arena to cfg.sessions slots, builds
    /// the k-CPO permutation cache for bounds 1..n, and spawns generation
    /// 0 of every slot.
    explicit SessionPool(const EngineConfig& cfg);

    std::size_t capacity() const noexcept { return capacity_; }
    std::size_t window_ldus() const noexcept { return n_; }
    const EngineConfig& config() const noexcept { return cfg_; }

    /// Sizes a shard's scratch buffers for this pool.  Any later
    /// run_window_range into it allocates nothing.
    void init_scratch(ShardScratch& s) const;

    /// Runs one buffer window for every occupied slot in [begin, end):
    /// pending feedback -> Eq. 1 bound -> batched Gilbert runs marked into
    /// packed tx words -> permutation scatter into playback words ->
    /// word-at-a-time CLF/ALF accounting -> ACK across the feedback
    /// channel -> churn bookkeeping.  Touches only slot state in the range
    /// and `s`; never allocates.
    void run_window_range(std::size_t begin, std::size_t end,
                          ShardScratch& s) noexcept;

    /// Folds slot totals (in slot order) and shard scratches (in shard
    /// order) into an EngineSummary.
    EngineSummary summarize(const std::vector<ShardScratch>& shards) const;

    /// The (lifetime, arrival-gap) pair the churn model draws for a
    /// session id, exposed so tests can predict generation boundaries.
    /// Draws come from lane contracts::kEngineLaneChurn of the session's
    /// root RNG; the data and feedback chains use kEngineLaneDataChain and
    /// kEngineLaneFeedbackChain.
    static std::pair<std::uint32_t, std::uint32_t> churn_draw(
        const EngineConfig& cfg, std::uint64_t session_id);

private:
    /// (Re)initializes slot state for session id
    /// generation_[slot] * capacity + slot.  Pre-validated params: no
    /// throw path in practice.
    void spawn(std::size_t slot);

    EngineConfig cfg_;
    std::size_t capacity_ = 0;
    std::size_t n_ = 0;      ///< LDUs per window
    std::size_t f_ = 0;      ///< packets per LDU
    std::size_t words_ = 0;  ///< 64-bit words covering n_ bits

    /// perms_[b] = calculate_permutation(n, b) for b in 1..n (index 0
    /// unused); built once so the hot path never recomputes an order.
    std::vector<Permutation> perms_;

    // Hot per-slot state (SoA).
    std::vector<net::GilbertLoss> data_chain_;
    std::vector<net::GilbertLoss> feedback_chain_;
    std::vector<double> estimate_;         ///< Eq. 1 EWMA, prior n/2
    std::vector<std::uint32_t> pending_;   ///< feedback ring, kNoObs = empty
    std::vector<std::uint32_t> windows_run_;
    std::vector<std::uint32_t> lifetime_left_;  ///< 0 = immortal
    std::vector<std::uint32_t> idle_left_;      ///< > 0: slot unoccupied
    std::vector<std::uint32_t> gap_next_;       ///< idle gap after departure
    std::vector<std::uint32_t> generation_;     ///< occupancy count of slot

    // Per-slot integer totals, never reset across generations.
    std::vector<std::uint64_t> tot_windows_;
    std::vector<std::uint64_t> tot_clf_;
    std::vector<std::uint64_t> tot_clf_sq_;
    std::vector<std::uint64_t> tot_losses_;
    std::vector<std::uint64_t> tot_acks_ok_;
    std::vector<std::uint64_t> tot_acks_lost_;
    std::vector<std::uint64_t> tot_spawned_;
    std::vector<std::uint64_t> tot_completed_;
    std::vector<std::uint32_t> max_clf_;

    // FEC-lite arm (sized only when cfg_.fec.enabled, so an uncoded pool
    // pays nothing).
    std::size_t fec_repairs_per_window_ = 0;
    std::vector<std::uint64_t> tot_fec_repairs_;
    std::vector<std::uint64_t> tot_fec_recovered_;
    std::vector<std::uint64_t> tot_fec_unrecovered_;

    // NACK-lite arenas (sized iff cfg.fec.nack; all per-slot, so the
    // shard-count determinism contract is untouched).
    std::vector<std::uint32_t> nack_credit_;  ///< banked repair packets
    std::vector<std::uint32_t> nack_wd_;      ///< consecutive lost feedbacks
    std::vector<std::uint64_t> tot_nack_sent_;
    std::vector<std::uint64_t> tot_nack_lost_;
    std::vector<std::uint64_t> tot_nack_repairs_;
    std::vector<std::uint64_t> tot_nack_expired_;
    std::vector<std::uint64_t> tot_nack_proactive_;

    // Governor-lite supervision (sized only when cfg_.governor.enabled,
    // so an unsupervised pool pays nothing).
    std::vector<GovernorLiteState> gov_;
    std::vector<std::uint64_t> tot_state_windows_;  ///< capacity * 4
    std::vector<std::uint64_t> tot_transitions_;
};

}  // namespace espread::engine
