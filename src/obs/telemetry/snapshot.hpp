// Epoch snapshots of the fleet telemetry plane.
//
// Every K engine steps the SnapshotRegistry folds the per-shard
// TelemetrySlabs — in shard index order, pure integer addition — into an
// immutable FleetSnapshot: cumulative counters and histograms plus the
// delta against the previous snapshot (the epoch's own traffic).  The
// fold happens between steps, when no shard is running, so it needs no
// synchronization and never perturbs the hot path.
//
// Because the epoch clock is the engine step count (never wall time) and
// the folded state is shard-order integer arithmetic, the snapshot
// *series* is byte-identical across shard counts and across runs with
// the same seed (pinned by test_telemetry).  Exporters: a JSON time
// series (`write_snapshot_series`, consumed by tools/espread_report and
// emitted by benches alongside BENCH_*.json) and Prometheus-style text
// exposition of one snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "obs/telemetry/slab.hpp"

namespace espread::exp {
class JsonWriter;
}

namespace espread::obs::telemetry {

/// Immutable fold of the whole fleet at one epoch boundary.
struct FleetSnapshot {
    std::uint64_t epoch = 0;  ///< 0-based epoch index
    std::uint64_t step = 0;   ///< engine steps completed when taken

    TelemetryCounters totals;  ///< cumulative since engine start
    TelemetryCounters delta;   ///< this epoch only (totals - previous)

    // Cumulative distributions since engine start.
    Histogram clf;
    Histogram loss_run;
    Histogram bound;
    Histogram governor_dwell;

    // This epoch's distributions (cumulative minus previous snapshot) —
    // the SLO evaluator's burn-rate inputs.
    Histogram clf_delta;
    Histogram loss_run_delta;
    Histogram bound_delta;
    Histogram governor_dwell_delta;

    bool operator==(const FleetSnapshot&) const noexcept = default;
};

/// Owns the snapshot series of one engine run.  capture() is called by
/// the engine at epoch boundaries; everything else is read-only.
class SnapshotRegistry {
public:
    /// Throws std::invalid_argument for epoch_steps == 0.
    explicit SnapshotRegistry(std::size_t epoch_steps);

    std::size_t epoch_steps() const noexcept { return epoch_steps_; }

    /// True when `step` completed steps land on an epoch boundary.
    bool due(std::uint64_t step) const noexcept {
        return step % epoch_steps_ == 0;
    }

    /// Folds `nslabs` slabs (in index order) into the next snapshot and
    /// returns it.  Single-threaded: callers must quiesce the shards.
    const FleetSnapshot& capture(std::uint64_t step, const TelemetrySlab* slabs,
                                 std::size_t nslabs);

    const std::deque<FleetSnapshot>& snapshots() const noexcept {
        return snapshots_;
    }
    bool empty() const noexcept { return snapshots_.empty(); }
    const FleetSnapshot& latest() const { return snapshots_.back(); }

private:
    std::size_t epoch_steps_;
    /// A deque, not a vector: the series grows for the whole run (~17 KB
    /// per snapshot), and a deque grows without copying it or holding
    /// two copies while it does.
    std::deque<FleetSnapshot> snapshots_;
};

/// Appends one snapshot as a JSON object (integers only except the
/// derived per-epoch rates; no wall-clock fields, so a rendered series
/// doubles as a determinism fingerprint).
void append_snapshot(exp::JsonWriter& json, const FleetSnapshot& s);

/// The whole series as one JSON document:
/// {"format":1,"epoch_steps":K,"epochs":N,"snapshots":[...]}.
std::string snapshot_series_json(const SnapshotRegistry& registry);

/// snapshot_series_json to a file (exp::write_text_file semantics).
void write_snapshot_series(const std::string& path,
                           const SnapshotRegistry& registry);

/// Prometheus text exposition (version 0.0.4) of one snapshot's
/// cumulative state: counters as `<prefix>_*_total`, histograms as
/// cumulative `_bucket{le="..."}` series with the exact `_sum` and
/// `_count`, plus quantile gauges.
std::string prometheus_text(const FleetSnapshot& s,
                            const std::string& prefix = "espread");

}  // namespace espread::obs::telemetry
