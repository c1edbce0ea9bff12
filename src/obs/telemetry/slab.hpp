// Per-shard telemetry slab: the fleet telemetry plane's hot-path sink.
//
// One TelemetrySlab per engine shard, written ONLY by the shard that owns
// it (single-writer, so plain stores — no atomics, no locks) and read
// only between steps, when every shard is idle.  The struct is
// cache-line-aligned and slabs are stored contiguously, so two shards
// never share a line and the disabled path costs exactly one predictable
// null-check branch per instrumentation site (the same contract as
// obs::TraceSink, enforced by espread-lint D4 for the observe_* calls).
//
// The counters are not observed one event at a time: the engine counts a
// slot range into its own totals block and merges that block's counters
// into the slab once per range (engine::SessionPool::run_window_range).
// The per-window CLF and bound histograms arrive the same way, once per
// range (observe_windows); loss runs and governor dwells are observed as
// they end.
//
// Everything in the slab is a uint64 counter or a fixed-size
// obs::Histogram: folding slabs in shard index order is pure integer
// addition, so an epoch snapshot is byte-identical for any shard count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/histogram.hpp"

namespace espread::obs::telemetry {

/// Monotone fleet counters, one block per slab and (merged) per snapshot.
/// merge() is element-wise addition; delta() the element-wise difference
/// of two states of the same cumulative block.
struct TelemetryCounters {
    std::uint64_t windows = 0;         ///< session-windows executed
    std::uint64_t unit_losses = 0;     ///< lost LDU playback slots
    std::uint64_t loss_windows = 0;    ///< windows with at least one loss
    std::uint64_t idle_windows = 0;    ///< churn gaps (slot unoccupied)
    std::uint64_t acks_delivered = 0;  ///< feedback packets that survived
    std::uint64_t acks_lost = 0;       ///< feedback packets dropped
    std::uint64_t sessions_spawned = 0;    ///< churn arrivals while stepping
    std::uint64_t sessions_completed = 0;  ///< churn departures
    /// Windows run under each engine governor state (indexed by
    /// engine::GovernorLiteConfig state; all-Normal when supervision is
    /// off).  Occupancy reconciles with EngineSummary::governor_windows.
    std::uint64_t governor_windows[4] = {0, 0, 0, 0};

    void merge(const TelemetryCounters& o) noexcept {
        windows += o.windows;
        unit_losses += o.unit_losses;
        loss_windows += o.loss_windows;
        idle_windows += o.idle_windows;
        acks_delivered += o.acks_delivered;
        acks_lost += o.acks_lost;
        sessions_spawned += o.sessions_spawned;
        sessions_completed += o.sessions_completed;
        for (std::size_t s = 0; s < 4; ++s) {
            governor_windows[s] += o.governor_windows[s];
        }
    }

    static TelemetryCounters delta(const TelemetryCounters& now,
                                   const TelemetryCounters& prev) noexcept {
        TelemetryCounters d;
        d.windows = now.windows - prev.windows;
        d.unit_losses = now.unit_losses - prev.unit_losses;
        d.loss_windows = now.loss_windows - prev.loss_windows;
        d.idle_windows = now.idle_windows - prev.idle_windows;
        d.acks_delivered = now.acks_delivered - prev.acks_delivered;
        d.acks_lost = now.acks_lost - prev.acks_lost;
        d.sessions_spawned = now.sessions_spawned - prev.sessions_spawned;
        d.sessions_completed = now.sessions_completed - prev.sessions_completed;
        for (std::size_t s = 0; s < 4; ++s) {
            d.governor_windows[s] =
                now.governor_windows[s] - prev.governor_windows[s];
        }
        return d;
    }

    bool operator==(const TelemetryCounters&) const noexcept = default;
};

/// One shard's telemetry arena.  All observe_* methods are allocation-free
/// histogram records; call sites must null-gate the slab pointer so the
/// disabled path stays one predictable branch per site.
struct alignas(64) TelemetrySlab {
    TelemetryCounters counters;  ///< merged in once per slot range
    Histogram window_clf;        ///< per-window playback CLF
    Histogram loss_run;          ///< consecutive-loss run lengths
    Histogram bound_used;        ///< Eq. 1 bound the window was sent with
    Histogram governor_dwell;    ///< windows per completed state visit

    /// A slot range's executed session-windows: their CLF and the bound
    /// each was sent with, recorded by the range and merged in once.
    void observe_windows(const Histogram& clf,
                         const Histogram& bound) noexcept {
        window_clf.merge(clf);
        bound_used.merge(bound);
    }

    /// One maximal run of consecutive lost LDU slots in playback order.
    void observe_loss_run(std::uint64_t length) noexcept {
        loss_run.record(length);
    }

    /// A governor state visit ended after `dwell` windows.
    void observe_governor_exit(std::uint64_t dwell) noexcept {
        governor_dwell.record(dwell);
    }
};

}  // namespace espread::obs::telemetry
