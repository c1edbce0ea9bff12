// ShardedEngine: the session pool split across a fixed worker fleet.
//
// The pool's slot axis is cut into one contiguous range per shard; every
// step() runs each range on its own worker (or inline when there is only
// one shard, which keeps the single-shard hot path free of even the task
// dispatch's allocations).  Because each slot's randomness is keyed by
// (seed, session id) and all totals merge in shard order, a run's
// summary is byte-identical for any shard count — sharding buys
// wall-clock only, never different numbers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/config.hpp"
#include "engine/pool.hpp"
#include "exp/thread_pool.hpp"
#include "obs/telemetry/snapshot.hpp"

namespace espread::exp {
class JsonWriter;
}

namespace espread::engine {

class ShardedEngine {
public:
    /// Validates the config, resolves shards (0 = hardware threads,
    /// clamped to the session count), builds the pool and, for more than
    /// one shard, the worker fleet.
    explicit ShardedEngine(const EngineConfig& cfg);

    const EngineConfig& config() const noexcept { return cfg_; }
    std::size_t shards() const noexcept { return scratch_.size(); }
    const SessionPool& pool() const noexcept { return pool_; }

    /// Advances every active session by one buffer window.  Single shard:
    /// runs inline, zero allocations.  Multiple shards: dispatches one
    /// task per shard and waits (O(shards) task allocations per step;
    /// the per-session work itself still allocates nothing).
    void step();

    /// step() `windows` times.
    void run(std::size_t windows);

    /// Steps completed so far (the telemetry plane's epoch clock).
    std::uint64_t steps() const noexcept { return steps_; }

    /// The fleet snapshot series, or null when cfg.telemetry is off.
    /// Snapshots are captured between steps — after every
    /// cfg.telemetry.epoch_steps-th step, when all shards are idle — so
    /// the series is byte-identical across shard counts.
    const obs::telemetry::SnapshotRegistry* telemetry() const noexcept {
        return registry_.get();
    }

    /// Deterministic summary of everything run so far.
    EngineSummary summary() const { return pool_.summarize(scratch_); }

private:
    static EngineConfig normalize(EngineConfig cfg);

    EngineConfig cfg_;   // normalized: shards resolved, validated
    SessionPool pool_;
    std::vector<ShardScratch> scratch_;                      // one per shard
    std::vector<std::pair<std::size_t, std::size_t>> ranges_; // slot ranges
    std::unique_ptr<exp::ThreadPool> workers_;  // null when single shard

    // Telemetry plane (empty / null when cfg.telemetry is off).
    std::vector<obs::telemetry::TelemetrySlab> slabs_;  // one per shard
    std::unique_ptr<obs::telemetry::SnapshotRegistry> registry_;
    std::uint64_t steps_ = 0;
};

/// Appends the summary as one JSON object (scalars and histograms).
/// Contains no wall-clock fields, so the rendering is usable as a
/// determinism fingerprint.
void append_summary(exp::JsonWriter& json, const EngineSummary& s);

/// The summary rendered as a standalone JSON string (test fingerprint).
std::string summary_json(const EngineSummary& s);

}  // namespace espread::engine
