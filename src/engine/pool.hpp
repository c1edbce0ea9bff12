// Structure-of-arrays session pool — the engine's hot data.
//
// Per-session state (Gilbert chains, Eq. 1 estimate, pending-feedback
// ring, churn counters) lives in parallel arrays indexed by slot, not in
// per-session objects.  A window step walks a contiguous slot range
// touching only these arenas plus a per-shard scratch buffer, so the
// steady-state path performs zero heap allocations (pinned by test_alloc)
// and shards never write to shared cache lines.
//
// The engine counts each event once: a range step counts into a local
// EngineTotals block and local CLF and bound histograms, and merges them
// into its shard's totals (and, when telemetry is on, into its shard's
// slab) at the end of the range.  summarize() and the telemetry
// snapshots both read that fold.
//
// Determinism contract: every random draw of slot s in its g-th occupancy
// comes from the stream seeded by derive_seed(seed, g * capacity + s), and
// all totals are integer sums or maxima merged in shard order, so
// summaries are byte-identical for any shard count (pinned by test_engine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/permutation.hpp"
#include "engine/config.hpp"
#include "engine/governor_lite.hpp"
#include "net/gilbert.hpp"
#include "obs/telemetry/slab.hpp"
#include "sim/stats.hpp"

namespace espread::engine {

/// Integer totals of everything the engine counts.  `counters` is the
/// telemetry plane's block, reused as is; the rest are sums only the
/// summary reads.  Every field is a sum or a maximum, so merging blocks
/// in any grouping yields the same totals.
struct EngineTotals {
    /// Windows, unit losses, loss windows, idle windows, ACKs, churn
    /// arrivals/departures (arrivals exclude the generation-0 prefill)
    /// and governor-lite occupancy (all in Normal when unsupervised).
    obs::telemetry::TelemetryCounters counters;
    std::uint64_t clf_sq = 0;                ///< sum of squared CLF
    std::uint64_t clf_max = 0;               ///< worst window CLF
    std::uint64_t governor_transitions = 0;  ///< governor-lite state changes
    std::uint64_t fec_repairs = 0;           ///< FEC-lite repair packets sent
    std::uint64_t fec_recovered = 0;         ///< lossy windows fully repaired
    std::uint64_t fec_unrecovered = 0;       ///< lossy windows left coded-out
    std::uint64_t nack_sent = 0;             ///< NACK-lite requests sent
    std::uint64_t nack_lost = 0;             ///< NACKs the channel dropped
    std::uint64_t nack_repairs = 0;          ///< banked repairs released
    std::uint64_t nack_expired = 0;          ///< accrual lost to the cap
    std::uint64_t nack_proactive = 0;        ///< watchdog-degraded windows

    void merge(const EngineTotals& o) noexcept {
        counters.merge(o.counters);
        clf_sq += o.clf_sq;
        if (o.clf_max > clf_max) clf_max = o.clf_max;
        governor_transitions += o.governor_transitions;
        fec_repairs += o.fec_repairs;
        fec_recovered += o.fec_recovered;
        fec_unrecovered += o.fec_unrecovered;
        nack_sent += o.nack_sent;
        nack_lost += o.nack_lost;
        nack_repairs += o.nack_repairs;
        nack_expired += o.nack_expired;
        nack_proactive += o.nack_proactive;
    }
};

/// Per-shard working memory: the packed loss-mask scratch words, the
/// distribution accumulators and the shard's totals.  Shards sit next to
/// each other in a vector and each writes its own every step, so the
/// struct is cache-line-aligned.  All counts are integers, and histograms
/// are flat arrays merged by addition, so folding shards in index order
/// yields grouping-independent totals.
struct alignas(64) ShardScratch {
    /// Words of padding on either side of the loss words: one cache line.
    static constexpr std::size_t kLossWordsPad = 8;
    /// Transmission-order then playback-order loss bits, with a cache
    /// line of padding before and after: the words are rewritten every
    /// window, and the padding keeps every other heap block (another
    /// shard's words among them) off their cache lines.
    std::vector<std::uint64_t> loss_words;
    obs::Histogram clf_hist;               ///< per-window CLF
    obs::Histogram bound_hist;             ///< bound each window was sent with
    EngineTotals totals;                   ///< everything this shard counted
    /// Telemetry plane sink for this shard; null when telemetry is off.
    /// Every use in the hot path is null-gated (one predictable branch),
    /// so the disabled step loop stays allocation-free and unperturbed.
    obs::telemetry::TelemetrySlab* telemetry = nullptr;
};
static_assert(alignof(ShardScratch) >= 64,
              "shards must not share a cache line");

/// Everything summarize() derives from the shard totals.  Doubles are
/// computed from integer totals in a fixed order, so they too are
/// bit-identical across shard counts.
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
    /// when supervision is off); the same fold as the telemetry plane's
    /// TelemetryCounters::governor_windows.
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
    obs::Histogram clf_histogram;      ///< per-window CLF distribution
    obs::Histogram bound_histogram;    ///< Eq. 1 bound usage distribution
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
    /// channel -> churn bookkeeping.  The range's counts and CLF/bound
    /// histograms merge once, at the end, into `s` and (when attached)
    /// s.telemetry; loss runs go to s.telemetry as the CLF walk finds them.
    /// Touches only slot state in the range and `s`; never allocates.
    void run_window_range(std::size_t begin, std::size_t end,
                          ShardScratch& s) noexcept;

    /// Folds the shard scratches (in shard order) into an EngineSummary.
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
    /// generation_[slot] * capacity + slot.  The slot's chains keep their
    /// shared model and are only reseeded: no lookup, no throw path.
    void spawn(std::size_t slot);

    EngineConfig cfg_;
    std::size_t capacity_ = 0;
    std::size_t n_ = 0;      ///< LDUs per window
    std::size_t f_ = 0;      ///< packets per LDU
    std::size_t words_ = 0;  ///< 64-bit words covering n_ bits
    /// ldu_of_[p] = p / f_ for the window's n_ * f_ packets: the hot path
    /// maps a packet run to its LDU range without a division.
    std::vector<std::size_t> ldu_of_;

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

    // FEC-lite repair accrual per window (0 when cfg_.fec is off).
    std::size_t fec_repairs_per_window_ = 0;

    // NACK-lite arenas (sized iff cfg.fec.nack; all per-slot, so the
    // shard-count determinism contract is untouched).
    std::vector<std::uint32_t> nack_credit_;  ///< banked repair packets
    std::vector<std::uint32_t> nack_wd_;      ///< consecutive lost feedbacks

    // Governor-lite supervision (sized only when cfg_.governor.enabled,
    // so an unsupervised pool pays nothing).
    std::vector<GovernorLiteState> gov_;
};

}  // namespace espread::engine
