// Declarative service-level objectives over the fleet snapshot series.
//
// An SloObjective reads one tail signal from each epoch's *delta*
// histogram (e.g. "p99 playout CLF <= 2"), converts it to an error
// budget — at most (1 - quantile) of the epoch's events may exceed the
// threshold — and tracks the classic two-window burn rate:
//
//     burn = (bad / total) / (1 - quantile)
//
// summed over a fast window (reacts in a few epochs) and a slow window
// (ignores blips).  Health is kBreached only when BOTH windows burn
// above their thresholds, kBurning when the fast window alone does —
// the standard multi-window multi-burn-rate alerting shape, clocked by
// engine epochs instead of wall time so evaluations are deterministic
// and replayable from a snapshot series file.
//
// Health transitions are appended to an internal log and, when a
// TraceSink is attached, emitted as EventType::kSloHealth events
// (null-gated, same contract as every other instrumentation site).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry/snapshot.hpp"

namespace espread::obs {
class TraceSink;
}

namespace espread::obs::telemetry {

/// Which per-epoch delta histogram an objective watches.
enum class SloSignal {
    kClf,            ///< per-window playback CLF
    kLossRun,        ///< consecutive-loss run length
    kBound,          ///< Eq. 1 bound used
    kGovernorDwell,  ///< windows per completed governor state visit
};

const char* slo_signal_name(SloSignal s) noexcept;

/// Parses a signal name as printed by slo_signal_name (an entry of
/// contracts::kTelemetrySignalNames).  Returns false on unknown names,
/// leaving `out` untouched.
bool parse_slo_signal(const std::string& name, SloSignal& out) noexcept;

/// One objective: "at quantile q, `signal` stays <= threshold", plus the
/// two burn-rate windows that decide how fast budget may be spent.
struct SloObjective {
    std::string name;            ///< label for reports and trace events
    SloSignal signal = SloSignal::kClf;
    std::uint64_t threshold = 2; ///< good event: value <= threshold
    double quantile = 0.99;      ///< budget: at most 1-q of events bad

    std::size_t fast_window = 4;   ///< epochs in the fast burn window
    std::size_t slow_window = 64;  ///< epochs in the slow burn window
    double fast_burn = 14.0;       ///< fast-window burn-rate threshold
    double slow_burn = 6.0;        ///< slow-window burn-rate threshold

    /// Throws std::invalid_argument on nonsensical parameters (quantile
    /// outside [0, 1), zero windows, fast window larger than slow).
    void validate() const;
};

enum class SloHealth { kOk, kBurning, kBreached };

const char* slo_health_name(SloHealth h) noexcept;

/// Point-in-time evaluation of one objective at one epoch.
struct SloStatus {
    SloHealth health = SloHealth::kOk;
    double fast_burn = 0.0;  ///< measured burn over the fast window
    double slow_burn = 0.0;  ///< measured burn over the slow window
};

/// One health change, in evaluation order.
struct SloTransition {
    std::uint64_t epoch = 0;
    std::size_t objective = 0;  ///< index into objectives()
    SloHealth from = SloHealth::kOk;
    SloHealth to = SloHealth::kOk;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
};

/// Feeds snapshots in epoch order, tracks per-objective burn windows and
/// health.  Pure function of the snapshot series: re-running the same
/// series yields the same transitions.
class SloEvaluator {
public:
    /// Validates every objective (throws std::invalid_argument).  `sink`
    /// may be null; when set, health transitions are recorded as
    /// EventType::kSloHealth.
    explicit SloEvaluator(std::vector<SloObjective> objectives,
                          TraceSink* sink = nullptr);

    /// Consumes the next epoch's snapshot.  Must be called in epoch
    /// order (throws std::invalid_argument on out-of-order epochs).
    void on_snapshot(const FleetSnapshot& s);

    const std::vector<SloObjective>& objectives() const noexcept {
        return objectives_;
    }

    /// Latest status of objective `i` (all-kOk before any snapshot).
    const SloStatus& status(std::size_t i) const { return status_.at(i); }

    const std::vector<SloTransition>& transitions() const noexcept {
        return transitions_;
    }

    /// True once any objective has ever reached kBreached (sticky; the
    /// report tool's CI exit code).
    bool ever_breached() const noexcept { return ever_breached_; }

private:
    struct EpochSample {
        std::uint64_t bad = 0;
        std::uint64_t total = 0;
    };

    struct ObjectiveState {
        std::vector<EpochSample> samples;  ///< one per consumed epoch
    };

    SloStatus evaluate(std::size_t i) const;

    std::vector<SloObjective> objectives_;
    TraceSink* sink_;
    std::vector<ObjectiveState> state_;
    std::vector<SloStatus> status_;
    std::vector<SloTransition> transitions_;
    bool ever_breached_ = false;
    bool any_epoch_ = false;
    std::uint64_t last_epoch_ = 0;
};

}  // namespace espread::obs::telemetry
