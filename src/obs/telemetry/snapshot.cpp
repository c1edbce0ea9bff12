#include "obs/telemetry/snapshot.hpp"

#include <iterator>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "exp/json.hpp"
#include "sim/contracts.hpp"

namespace espread::obs::telemetry {

namespace {

// governor_windows is indexed by governor state, named by the registry.
static_assert(std::size(contracts::kGovernorStateNames) ==
              std::extent_v<decltype(TelemetryCounters::governor_windows)>);

void append_counters(exp::JsonWriter& json, const TelemetryCounters& c) {
    json.begin_object();
    json.key("windows").value(c.windows);
    json.key("unit_losses").value(c.unit_losses);
    json.key("loss_windows").value(c.loss_windows);
    json.key("idle_windows").value(c.idle_windows);
    json.key("acks_delivered").value(c.acks_delivered);
    json.key("acks_lost").value(c.acks_lost);
    json.key("sessions_spawned").value(c.sessions_spawned);
    json.key("sessions_completed").value(c.sessions_completed);
    json.key("governor_windows").begin_array();
    for (std::size_t s = 0; s < 4; ++s) json.value(c.governor_windows[s]);
    json.end_array();
    json.end_object();
}

}  // namespace

SnapshotRegistry::SnapshotRegistry(std::size_t epoch_steps)
    : epoch_steps_(epoch_steps) {
    if (epoch_steps_ == 0) {
        throw std::invalid_argument("SnapshotRegistry: epoch_steps must be >= 1");
    }
}

const FleetSnapshot& SnapshotRegistry::capture(std::uint64_t step,
                                               const TelemetrySlab* slabs,
                                               std::size_t nslabs) {
    FleetSnapshot s;
    s.epoch = snapshots_.size();
    s.step = step;
    for (std::size_t i = 0; i < nslabs; ++i) {
        s.totals.merge(slabs[i].counters);
        s.clf.merge(slabs[i].window_clf);
        s.loss_run.merge(slabs[i].loss_run);
        s.bound.merge(slabs[i].bound_used);
        s.governor_dwell.merge(slabs[i].governor_dwell);
    }
    if (snapshots_.empty()) {
        s.delta = s.totals;
        s.clf_delta = s.clf;
        s.loss_run_delta = s.loss_run;
        s.bound_delta = s.bound;
        s.governor_dwell_delta = s.governor_dwell;
    } else {
        const FleetSnapshot& prev = snapshots_.back();
        s.delta = TelemetryCounters::delta(s.totals, prev.totals);
        s.clf_delta = Histogram::delta(s.clf, prev.clf);
        s.loss_run_delta = Histogram::delta(s.loss_run, prev.loss_run);
        s.bound_delta = Histogram::delta(s.bound, prev.bound);
        s.governor_dwell_delta =
            Histogram::delta(s.governor_dwell, prev.governor_dwell);
    }
    snapshots_.push_back(std::move(s));
    return snapshots_.back();
}

void append_snapshot(exp::JsonWriter& json, const FleetSnapshot& s) {
    json.begin_object();
    json.key("epoch").value(s.epoch);
    json.key("step").value(s.step);
    json.key("totals");
    append_counters(json, s.totals);
    json.key("delta");
    append_counters(json, s.delta);
    json.key("clf");
    append_histogram(json, s.clf);
    json.key("loss_run");
    append_histogram(json, s.loss_run);
    json.key("bound");
    append_histogram(json, s.bound);
    json.key("governor_dwell");
    append_histogram(json, s.governor_dwell);
    json.key("clf_delta");
    append_histogram(json, s.clf_delta);
    json.key("loss_run_delta");
    append_histogram(json, s.loss_run_delta);
    json.key("bound_delta");
    append_histogram(json, s.bound_delta);
    json.key("governor_dwell_delta");
    append_histogram(json, s.governor_dwell_delta);
    json.end_object();
}

std::string snapshot_series_json(const SnapshotRegistry& registry) {
    exp::JsonWriter json;
    json.begin_object();
    json.key("format").value(std::uint64_t{1});
    json.key("epoch_steps").value(static_cast<std::uint64_t>(registry.epoch_steps()));
    json.key("epochs").value(static_cast<std::uint64_t>(registry.snapshots().size()));
    json.key("snapshots").begin_array();
    for (const FleetSnapshot& s : registry.snapshots()) {
        append_snapshot(json, s);
    }
    json.end_array();
    json.end_object();
    return json.str();
}

void write_snapshot_series(const std::string& path,
                           const SnapshotRegistry& registry) {
    exp::write_text_file(path, snapshot_series_json(registry));
}

namespace {

void prom_counter(std::string& out, const std::string& prefix,
                  const char* name, std::uint64_t v) {
    out += "# TYPE " + prefix + "_" + name + " counter\n";
    out += prefix + "_" + name + " " + std::to_string(v) + "\n";
}

void prom_histogram(std::string& out, const std::string& prefix,
                    std::string_view name, const Histogram& h) {
    const std::string metric = prefix + "_" + std::string(name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (h.counts()[b] == 0) continue;
        cum += h.counts()[b];
        out += metric + "_bucket{le=\"" +
               std::to_string(Histogram::bucket_upper(b)) + "\"} " +
               std::to_string(cum) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(h.total()) + "\n";
    out += metric + "_sum " + std::to_string(h.sum()) + "\n";
    out += metric + "_count " + std::to_string(h.total()) + "\n";
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "0.5"},
          std::pair<double, const char*>{0.90, "0.9"},
          std::pair<double, const char*>{0.99, "0.99"},
          std::pair<double, const char*>{0.999, "0.999"}}) {
        out += metric + "{quantile=\"" + label + "\"} " +
               std::to_string(h.quantile(q)) + "\n";
    }
}

}  // namespace

std::string prometheus_text(const FleetSnapshot& s, const std::string& prefix) {
    std::string out;
    out += "# HELP " + prefix + " espread fleet telemetry, epoch " +
           std::to_string(s.epoch) + " (step " + std::to_string(s.step) +
           ")\n";
    prom_counter(out, prefix, "windows_total", s.totals.windows);
    prom_counter(out, prefix, "unit_losses_total", s.totals.unit_losses);
    prom_counter(out, prefix, "loss_windows_total", s.totals.loss_windows);
    prom_counter(out, prefix, "idle_windows_total", s.totals.idle_windows);
    prom_counter(out, prefix, "acks_delivered_total", s.totals.acks_delivered);
    prom_counter(out, prefix, "acks_lost_total", s.totals.acks_lost);
    prom_counter(out, prefix, "sessions_spawned_total",
                 s.totals.sessions_spawned);
    prom_counter(out, prefix, "sessions_completed_total",
                 s.totals.sessions_completed);
    out += "# TYPE " + prefix + "_governor_windows_total counter\n";
    for (std::size_t st = 0; st < 4; ++st) {
        out += prefix + "_governor_windows_total{state=\"" +
               std::string(contracts::kGovernorStateNames[st]) + "\"} " +
               std::to_string(s.totals.governor_windows[st]) + "\n";
    }
    // Histograms are named by the telemetry signals, in registry order,
    // matching the snapshot-series keys and the SLO objective spec.
    const Histogram* signals[] = {&s.clf, &s.loss_run, &s.bound,
                                          &s.governor_dwell};
    static_assert(std::size(contracts::kTelemetrySignalNames) ==
                  sizeof(signals) / sizeof(signals[0]));
    for (std::size_t i = 0; i < std::size(signals); ++i) {
        prom_histogram(out, prefix, contracts::kTelemetrySignalNames[i],
                       *signals[i]);
    }
    return out;
}

}  // namespace espread::obs::telemetry
