// Cross-TU contract registry (DESIGN.md §14).
//
// Every name list and numbering that keeps the experiments bit-reproducible
// but is used by MORE than one translation unit is declared here exactly
// once.  The code reads these tables; it does not keep copies of them:
//
//   * RNG split lanes.  Each independent consumer of a root Rng owns one
//     lane per root family; a duplicated lane silently correlates two
//     processes that every figure assumes are independent.  Lane constants
//     are named k<Family>Lane<Name>; the family names the root the lane is
//     split from.  espread_lint rule C1 (DESIGN.md §14) rejects a magic
//     `.split(<int>)` in src/ or bench/, a lane used outside its family's
//     paths, and a value collision within a family; C5 flags a lane that
//     nothing splits.
//   * Name tables.  obs::event_name / actor_name, the SLO signal and
//     health names, the Prometheus state labels and espread_report's
//     occupancy line index these tables by
//     enumerator; each consumer static_asserts the table length against
//     its enum.  Session metric names are checked at build time: writers
//     name a slot through obs::Metric or obs::HistogramMetric, whose
//     consteval lookups reject a name missing from kSessionMetricNames or
//     kSessionHistogramNames respectively.  The JSON-key tables are
//     checked against real output by tests/test_contracts.cpp (producer
//     names equal the table, in both directions), which also requires the
//     kitchen-sink session to emit every metric name.
//   * Bench claim-gate keys.  tools/perf_gate and the CI workflow gate on
//     top-level BENCH_*.json keys; the keys they consume must stay a
//     subset of what the benches emit (C4).
//
// Wire-format type tags live in proto::WireType itself (protocol/codec.hpp):
// peek_type's switch refuses to compile when two tags share a byte, and the
// codec fuzz corpus test requires a record for every accepted tag.
//
// To add a lane, name, or gate key: declare it here first, then use it at
// the producing/consuming sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace espread::contracts {

// ---- RNG split lanes -------------------------------------------------------
//
// Family "Session": lanes split from proto::Session's per-session root
// (src/protocol).  A lane that is only split when its feature is enabled
// (RLC, recovery) keeps feature-off runs byte-identical.
inline constexpr std::uint64_t kSessionLaneDataChannel = 1;
inline constexpr std::uint64_t kSessionLaneFeedbackChannel = 2;
inline constexpr std::uint64_t kSessionLaneMediaTrace = 3;
inline constexpr std::uint64_t kSessionLaneDataImpairment = 4;
inline constexpr std::uint64_t kSessionLaneFeedbackImpairment = 5;
inline constexpr std::uint64_t kSessionLaneRlcCoefficients = 6;
inline constexpr std::uint64_t kSessionLaneNackJitter = 7;

// Family "Engine": lanes split from the data-oriented engine's per-session
// root (src/engine).  The scalar reference model deliberately reuses the
// pool's chain lanes — reference.cpp predicting pool.cpp bit-for-bit is
// the shard-invariance contract, not a collision.
inline constexpr std::uint64_t kEngineLaneDataChain = 1;
inline constexpr std::uint64_t kEngineLaneFeedbackChain = 2;
inline constexpr std::uint64_t kEngineLaneChurn = 3;

// Family "Analysis": lanes split from the analysis/validation tools' local
// roots (src/analysis, bench/bench_validation).
inline constexpr std::uint64_t kAnalysisLaneGilbertChain = 1;

// ---- session metric names --------------------------------------------------
//
// Counter names of proto::Session's obs::MetricsRegistry: entry i is the
// registry's counter slot i, so a name outside this table does not compile
// (obs::Metric) and the order, asserted sorted in obs/metrics.hpp, is the
// JSON key order.  Gated metric groups (impairment, rlc, governor,
// recovery) only appear when their feature ran, but the names still live
// here.
inline constexpr std::string_view kSessionMetricNames[] = {
    "acks_applied",
    "acks_sent",
    "acks_stale",
    "data_bits_sent",
    "data_packets_corrupt_rejected",
    "data_packets_delivered",
    "data_packets_dropped",
    "data_packets_duplicated",
    "data_packets_forced_dropped",
    "data_packets_reordered",
    "data_packets_sent",
    "data_sideband_bits",
    "data_sideband_sent",
    "feedback_corrupt_rejected",
    "feedback_forced_dropped",
    "feedback_packets_dropped",
    "feedback_packets_sent",
    "frames_deadline_dropped",
    "frames_undecodable",
    "governor_acks_rejected",
    "governor_acks_rejected_duplicate",
    "governor_acks_rejected_future",
    "governor_acks_rejected_stale",
    "governor_entries_degraded",
    "governor_entries_fallback",
    "governor_entries_normal",
    "governor_entries_recovering",
    "governor_fallbacks",
    "governor_observations_clamped",
    "governor_recoveries",
    "governor_transitions",
    "governor_windows_degraded",
    "governor_windows_fallback",
    "governor_windows_normal",
    "governor_windows_recovering",
    "nack_credits_expired",
    "nack_repairs_sent",
    "nack_requests_received",
    "nack_requests_sent",
    "nack_requests_serviced",
    "nack_retx_bits",
    "nack_retx_packets",
    "nack_retx_skipped_deadline",
    "nack_suppressed_budget",
    "playout_misses",
    "recovery_jobs_expired",
    "recovery_jobs_shed",
    "recovery_nacks_admitted",
    "recovery_nacks_duplicate",
    "recovery_nacks_invalid",
    "recovery_watchdog_timeouts",
    "recovery_windows_proactive",
    "recovery_windows_reactive",
    "recovery_windows_suspended",
    "recv_duplicates_dropped",
    "recv_mismatch_dropped",
    "recv_stale_dropped",
    "retransmissions",
    "rlc_forged_rejected",
    "rlc_packets_recovered",
    "rlc_packets_unrecovered",
    "rlc_rank",
    "rlc_repair_bits_sent",
    "rlc_repairs_lost",
    "rlc_repairs_redundant",
    "rlc_repairs_sent",
};

// Histogram names of the same registry, kept apart from the counters so
// that only these slots carry an obs::Histogram: entry i is histogram slot
// i (obs::HistogramMetric), sorted the same way.  A counter name passed
// to hist(), or a histogram name passed to add(), does not compile.
inline constexpr std::string_view kSessionHistogramNames[] = {
    "bound_used",
    "governor_bound",
    "governor_state",
    "loss_run_length",
    "retransmit_latency_ms",
    "rlc_decode_delay_ms",
    "rlc_in_order_delay_ms",
    "window_clf",
    "window_packet_burst",
};

// Top-level keys of engine::summary_json (src/engine/engine.cpp), consumed
// by bench_scale artifacts and the engine tests.
inline constexpr std::string_view kEngineSummaryKeys[] = {
    "acks_delivered",
    "acks_lost",
    "active_sessions",
    "alf",
    "bound_histogram",
    "buckets",
    "clf_dev",
    "clf_histogram",
    "clf_max",
    "clf_mean",
    "clf_p50",
    "clf_p90",
    "clf_p99",
    "clf_p999",
    "fec_repair_packets",
    "fec_windows_recovered",
    "fec_windows_unrecovered",
    "governor_transitions",
    "governor_windows",
    "idle_windows",
    "max",
    "nack_credits_expired",
    "nack_repair_packets",
    "nack_requests_lost",
    "nack_requests_sent",
    "nack_windows_proactive",
    "p50",
    "p90",
    "p99",
    "p999",
    "sessions",
    "sessions_completed",
    "sessions_spawned",
    "slots",
    "sum",
    "total",
    "unit_losses",
    "windows",
};

// Keys of the telemetry snapshot-series JSON written by
// src/obs/telemetry/snapshot.cpp and read back by tools/espread_report
// (the report tool may consume a subset, never a superset).
inline constexpr std::string_view kTelemetrySeriesKeys[] = {
    "acks_delivered",
    "acks_lost",
    "bound",
    "bound_delta",
    "buckets",
    "clf",
    "clf_delta",
    "delta",
    "epoch",
    "epoch_steps",
    "epochs",
    "format",
    "governor_dwell",
    "governor_dwell_delta",
    "governor_windows",
    "idle_windows",
    "loss_run",
    "loss_run_delta",
    "loss_windows",
    "max",
    "p50",
    "p90",
    "p99",
    "p999",
    "sessions_completed",
    "sessions_spawned",
    "snapshots",
    "step",
    "sum",
    "total",
    "totals",
    "unit_losses",
    "windows",
};

// The four fleet telemetry signals: SLO objective signal names
// (obs::telemetry::SloSignal), snapshot-series histogram keys, and the
// Prometheus histogram exposition all use exactly these names.
inline constexpr std::string_view kTelemetrySignalNames[] = {
    "clf",
    "loss_run",
    "bound",
    "governor_dwell",
};

// SLO health states (obs::telemetry::SloHealth), in severity order.
inline constexpr std::string_view kSloHealthNames[] = {
    "ok",
    "burning",
    "breached",
};

// Governor state labels, in proto::GovernorState enumerator order (also
// the engine's kGov* indices): the Prometheus exposition and the report
// tool's occupancy line.
inline constexpr std::string_view kGovernorStateNames[] = {
    "normal",
    "degraded",
    "fallback",
    "recovering",
};

// Trace event kind labels (obs::event_name), in obs::EventType order.
inline constexpr std::string_view kTraceEventNames[] = {
    "PacketSent",
    "PacketLost",
    "Retransmit",
    "FrameDeadlineDrop",
    "AckSent",
    "AckApplied",
    "AckStale",
    "EstimatorUpdate",
    "WindowFinalized",
    "PlayoutMiss",
    "FrameComplete",
    "CorruptRejected",
    "Reordered",
    "DupDropped",
    "StaleDropped",
    "GovernorState",
    "GovernorAckReject",
    "GovernorClamp",
    "SloHealth",
    "RepairSent",
    "FecRecovered",
    "NackSent",
    "NackServed",
    "RepairTimeout",
    "RepairShed",
};

// Trace actor labels (obs::actor_name), in obs::Actor order.
inline constexpr std::string_view kTraceActorNames[] = {
    "server",
    "data channel",
    "feedback channel",
    "client",
};

// Top-level BENCH_*.json keys that CI claim gates consume: tools/perf_gate
// greps the first by default, and .github/workflows/ci.yml names the rest
// via --key=.  Every key here must be emitted by at least one gated bench.
inline constexpr std::string_view kBenchGateKeys[] = {
    "windows_per_second",
    "gf256_mul_mbytes_per_second",
};

// ---- lookups ---------------------------------------------------------------

/// Entry `i` of a name table, or `fallback` when `i` is out of range.  The
/// entries are string literals, so the pointer is NUL-terminated.
template <std::size_t N>
constexpr const char* name_at(const std::string_view (&table)[N],
                              std::size_t i, const char* fallback) noexcept {
    return i < N ? table[i].data() : fallback;
}

/// Index of `name` in `table`, or N when it is absent.
template <std::size_t N>
constexpr std::size_t index_of(const std::string_view (&table)[N],
                               std::string_view name) noexcept {
    std::size_t i = 0;
    while (i < N && table[i] != name) ++i;
    return i;
}

}  // namespace espread::contracts
