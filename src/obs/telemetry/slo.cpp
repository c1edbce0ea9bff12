#include "obs/telemetry/slo.hpp"

#include <iterator>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/contracts.hpp"

namespace espread::obs::telemetry {

static_assert(std::size(contracts::kTelemetrySignalNames) ==
              static_cast<std::size_t>(SloSignal::kGovernorDwell) + 1);
static_assert(std::size(contracts::kSloHealthNames) ==
              static_cast<std::size_t>(SloHealth::kBreached) + 1);

const char* slo_signal_name(SloSignal s) noexcept {
    return contracts::name_at(contracts::kTelemetrySignalNames,
                              static_cast<std::size_t>(s), "?");
}

bool parse_slo_signal(const std::string& name, SloSignal& out) noexcept {
    const std::size_t i =
        contracts::index_of(contracts::kTelemetrySignalNames, name);
    if (i == std::size(contracts::kTelemetrySignalNames)) return false;
    out = static_cast<SloSignal>(i);
    return true;
}

const char* slo_health_name(SloHealth h) noexcept {
    return contracts::name_at(contracts::kSloHealthNames,
                              static_cast<std::size_t>(h), "?");
}

void SloObjective::validate() const {
    if (name.empty()) {
        throw std::invalid_argument("SloObjective: name must be non-empty");
    }
    if (!(quantile >= 0.0) || quantile >= 1.0) {
        throw std::invalid_argument("SloObjective: quantile must be in [0, 1)");
    }
    if (fast_window == 0 || slow_window == 0) {
        throw std::invalid_argument("SloObjective: windows must be >= 1 epoch");
    }
    if (fast_window > slow_window) {
        throw std::invalid_argument(
            "SloObjective: fast window must not exceed the slow window");
    }
    if (fast_burn <= 0.0 || slow_burn <= 0.0) {
        throw std::invalid_argument(
            "SloObjective: burn thresholds must be positive");
    }
}

namespace {

const QuantileHistogram& signal_delta(const FleetSnapshot& s, SloSignal sig) {
    switch (sig) {
        case SloSignal::kClf: return s.clf_delta;
        case SloSignal::kLossRun: return s.loss_run_delta;
        case SloSignal::kBound: return s.bound_delta;
        case SloSignal::kGovernorDwell: return s.governor_dwell_delta;
    }
    return s.clf_delta;
}

}  // namespace

SloEvaluator::SloEvaluator(std::vector<SloObjective> objectives,
                           TraceSink* sink)
    : objectives_(std::move(objectives)), sink_(sink) {
    for (const SloObjective& o : objectives_) o.validate();
    state_.resize(objectives_.size());
    status_.resize(objectives_.size());
}

SloStatus SloEvaluator::evaluate(std::size_t i) const {
    const SloObjective& o = objectives_[i];
    const std::vector<EpochSample>& samples = state_[i].samples;

    const auto burn_over = [&](std::size_t window) {
        std::uint64_t bad = 0;
        std::uint64_t total = 0;
        const std::size_t n = samples.size() < window ? samples.size() : window;
        for (std::size_t k = samples.size() - n; k < samples.size(); ++k) {
            bad += samples[k].bad;
            total += samples[k].total;
        }
        if (total == 0) return 0.0;
        const double bad_fraction =
            static_cast<double>(bad) / static_cast<double>(total);
        return bad_fraction / (1.0 - o.quantile);
    };

    SloStatus st;
    st.fast_burn = burn_over(o.fast_window);
    st.slow_burn = burn_over(o.slow_window);
    if (st.fast_burn >= o.fast_burn && st.slow_burn >= o.slow_burn) {
        st.health = SloHealth::kBreached;
    } else if (st.fast_burn >= o.fast_burn) {
        st.health = SloHealth::kBurning;
    } else {
        st.health = SloHealth::kOk;
    }
    return st;
}

void SloEvaluator::on_snapshot(const FleetSnapshot& s) {
    if (any_epoch_ && s.epoch <= last_epoch_) {
        throw std::invalid_argument(
            "SloEvaluator: snapshots must arrive in epoch order");
    }
    any_epoch_ = true;
    last_epoch_ = s.epoch;

    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const SloObjective& o = objectives_[i];
        const QuantileHistogram& h = signal_delta(s, o.signal);
        EpochSample sample;
        sample.total = h.total();
        sample.bad = h.total() - h.count_le(o.threshold);
        state_[i].samples.push_back(sample);

        const SloStatus next = evaluate(i);
        if (next.health != status_[i].health) {
            SloTransition t;
            t.epoch = s.epoch;
            t.objective = i;
            t.from = status_[i].health;
            t.to = next.health;
            t.fast_burn = next.fast_burn;
            t.slow_burn = next.slow_burn;
            transitions_.push_back(t);
            if (sink_ != nullptr) {
                TraceEvent e;
                e.time = static_cast<sim::SimTime>(s.step);
                e.type = EventType::kSloHealth;
                e.actor = Actor::kServer;
                e.window = static_cast<std::size_t>(s.epoch);
                e.seq = static_cast<std::uint64_t>(i);
                e.arg = static_cast<std::int64_t>(next.health);
                e.v0 = next.fast_burn;
                e.v1 = next.slow_burn;
                sink_->record(e);
            }
        }
        status_[i] = next;
        if (next.health == SloHealth::kBreached) ever_breached_ = true;
    }
}

SloHealth SloEvaluator::overall_health() const noexcept {
    SloHealth worst = SloHealth::kOk;
    for (const SloStatus& st : status_) {
        if (static_cast<int>(st.health) > static_cast<int>(worst)) {
            worst = st.health;
        }
    }
    return worst;
}

}  // namespace espread::obs::telemetry
