#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "exp/flags.hpp"
#include "json_read.hpp"
#include "sim/contracts.hpp"

namespace espread::report {

namespace {

using obs::Histogram;
using obs::telemetry::FleetSnapshot;
using obs::telemetry::SloEvaluator;
using obs::telemetry::SloHealth;
using obs::telemetry::SloObjective;
using obs::telemetry::SloStatus;
using obs::telemetry::SloTransition;
using obs::telemetry::TelemetryCounters;

bool set_error(std::string* error, const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
}

/// True when every number in `v` fits a u64 counter: the series writer
/// emits nothing else, and as_u64 would clamp anything outside.
bool all_numbers_u64(const JsonValue& v) {
    if (v.is_number()) return v.is_u64();
    for (const JsonValue& e : v.array) {
        if (!all_numbers_u64(e)) return false;
    }
    for (const auto& [key, member] : v.object) {
        if (!all_numbers_u64(member)) return false;
    }
    return true;
}

bool load_counters(const JsonValue& v, TelemetryCounters& c,
                   std::string* error) {
    if (!v.is_object()) return set_error(error, "counters: expected object");
    c.windows = v.at("windows").as_u64();
    c.unit_losses = v.at("unit_losses").as_u64();
    c.loss_windows = v.at("loss_windows").as_u64();
    c.idle_windows = v.at("idle_windows").as_u64();
    c.acks_delivered = v.at("acks_delivered").as_u64();
    c.acks_lost = v.at("acks_lost").as_u64();
    c.sessions_spawned = v.at("sessions_spawned").as_u64();
    c.sessions_completed = v.at("sessions_completed").as_u64();
    const JsonValue& gov = v.at("governor_windows");
    if (!gov.is_array() || gov.array.size() != 4) {
        return set_error(error, "counters: governor_windows must have 4 entries");
    }
    for (std::size_t s = 0; s < 4; ++s) {
        c.governor_windows[s] = gov.array[s].as_u64();
    }
    return true;
}

bool load_histogram(const JsonValue& v, Histogram& h,
                    std::string* error) {
    if (!v.is_object()) return set_error(error, "histogram: expected object");
    const JsonValue& buckets = v.at("buckets");
    if (!buckets.is_array()) {
        return set_error(error, "histogram: missing buckets array");
    }
    for (const JsonValue& pair : buckets.array) {
        if (!pair.is_array() || pair.array.size() != 2) {
            return set_error(error, "histogram: bucket entry must be [index, count]");
        }
        h.restore_bucket(static_cast<std::size_t>(pair.array[0].as_u64()),
                         pair.array[1].as_u64());
    }
    if (h.total() != v.at("total").as_u64()) {
        return set_error(error, "histogram: bucket counts disagree with total");
    }
    h.restore_sum(v.at("sum").as_u64());
    return true;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string fmt_double(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

std::string fmt_compact(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string pad_left(std::string s, std::size_t width) {
    if (s.size() < width) s.insert(s.begin(), width - s.size(), ' ');
    return s;
}

std::string pad_right(std::string s, std::size_t width) {
    if (s.size() < width) s.append(width - s.size(), ' ');
    return s;
}

const char* health_tag(SloHealth h) {
    switch (h) {
        case SloHealth::kOk: return "[ok]      ";
        case SloHealth::kBurning: return "[burning] ";
        case SloHealth::kBreached: return "[BREACHED]";
    }
    return "[?]       ";  // unreachable; keeps -Wreturn-type quiet
}

/// A finite non-negative number field; false on garbage, trailing text,
/// a sign, inf or nan.
bool parse_number(const std::string& field, double& out) {
    const auto v = exp::parse_number(field);
    if (!v || *v < 0.0) return false;
    out = *v;
    return true;
}

/// A whole-number field (a threshold or a window length).
bool parse_count(const std::string& field, std::size_t& out) {
    const auto v = exp::parse_count(field);
    if (v) out = *v;
    return v.has_value();
}

void append_slo_line(std::string& out, const SloObjective& o,
                     const SloStatus& st) {
    out += "  ";
    out += health_tag(st.health);
    out += " " + pad_right(o.name, 16) + " " +
           obs::telemetry::slo_signal_name(o.signal) + " p" +
           fmt_compact(o.quantile) + " <= " + fmt_u64(o.threshold) +
           "  burn fast " + fmt_double(st.fast_burn) + "/" +
           fmt_compact(o.fast_burn) + " (" + fmt_u64(o.fast_window) +
           "ep), slow " + fmt_double(st.slow_burn) + "/" +
           fmt_compact(o.slow_burn) + " (" + fmt_u64(o.slow_window) +
           "ep)\n";
}

}  // namespace

bool load_series(const std::string& json_text, LoadedSeries& out,
                 std::string* error) {
    out = LoadedSeries{};
    JsonValue doc;
    if (!parse_json(json_text, doc, error)) return false;
    if (!doc.is_object()) return set_error(error, "series: expected object");
    if (!all_numbers_u64(doc)) {
        return set_error(error, "series: number outside the u64 counter range");
    }
    if (doc.at("format").as_u64() != 1) {
        return set_error(error, "series: unsupported format version");
    }
    out.epoch_steps = static_cast<std::size_t>(doc.at("epoch_steps").as_u64());
    if (out.epoch_steps == 0) {
        return set_error(error, "series: epoch_steps must be >= 1");
    }
    const JsonValue& snaps = doc.at("snapshots");
    if (!snaps.is_array()) {
        return set_error(error, "series: missing snapshots array");
    }
    if (doc.at("epochs").as_u64() != snaps.array.size()) {
        return set_error(error, "series: epochs count disagrees with array");
    }
    out.snapshots.reserve(snaps.array.size());
    for (const JsonValue& sv : snaps.array) {
        FleetSnapshot s;
        s.epoch = sv.at("epoch").as_u64();
        s.step = sv.at("step").as_u64();
        if (!load_counters(sv.at("totals"), s.totals, error) ||
            !load_counters(sv.at("delta"), s.delta, error) ||
            !load_histogram(sv.at("clf"), s.clf, error) ||
            !load_histogram(sv.at("loss_run"), s.loss_run, error) ||
            !load_histogram(sv.at("bound"), s.bound, error) ||
            !load_histogram(sv.at("governor_dwell"), s.governor_dwell, error) ||
            !load_histogram(sv.at("clf_delta"), s.clf_delta, error) ||
            !load_histogram(sv.at("loss_run_delta"), s.loss_run_delta, error) ||
            !load_histogram(sv.at("bound_delta"), s.bound_delta, error) ||
            !load_histogram(sv.at("governor_dwell_delta"),
                            s.governor_dwell_delta, error)) {
            return false;
        }
        out.snapshots.push_back(std::move(s));
    }
    return true;
}

SloObjective default_objective() {
    SloObjective o;
    o.name = "clf_tail";
    o.signal = obs::telemetry::SloSignal::kClf;
    o.threshold = 2;
    o.quantile = 0.99;
    return o;
}

bool parse_objective_spec(const std::string& spec, SloObjective& out,
                          std::string* error) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = spec.find(',', start);
        fields.push_back(spec.substr(start, comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    // name,signal,threshold[,quantile[,fast,slow[,fast_burn,slow_burn]]]
    if (fields.size() != 3 && fields.size() != 4 && fields.size() != 6 &&
        fields.size() != 8) {
        return set_error(error,
                         "--slo: expected "
                         "name,signal,threshold[,quantile[,fast,slow"
                         "[,fast_burn,slow_burn]]]");
    }
    SloObjective o;
    o.name = fields[0];
    if (o.name.empty()) return set_error(error, "--slo: empty name");
    if (!obs::telemetry::parse_slo_signal(fields[1], o.signal)) {
        return set_error(error, "--slo: unknown signal '" + fields[1] + "'");
    }
    if (!parse_count(fields[2], o.threshold)) {
        return set_error(error, "--slo: bad threshold '" + fields[2] + "'");
    }
    if (fields.size() >= 4) {
        if (!parse_number(fields[3], o.quantile)) {
            return set_error(error, "--slo: bad quantile '" + fields[3] + "'");
        }
    }
    if (fields.size() >= 6) {
        if (!parse_count(fields[4], o.fast_window) ||
            !parse_count(fields[5], o.slow_window)) {
            return set_error(error, "--slo: bad burn windows");
        }
    }
    if (fields.size() == 8) {
        if (!parse_number(fields[6], o.fast_burn) ||
            !parse_number(fields[7], o.slow_burn)) {
            return set_error(error, "--slo: bad burn thresholds");
        }
    }
    try {
        o.validate();
    } catch (const std::invalid_argument& e) {
        return set_error(error, std::string("--slo: ") + e.what());
    }
    out = std::move(o);
    return true;
}

std::string sparkline(const std::vector<std::uint64_t>& values) {
    static const char* const kBlocks[8] = {
        "▁", "▂", "▃", "▄",
        "▅", "▆", "▇", "█"};
    std::uint64_t max = 0;
    for (const std::uint64_t v : values) max = std::max(max, v);
    std::string out;
    for (const std::uint64_t v : values) {
        const std::size_t level =
            max == 0 ? 0 : static_cast<std::size_t>((v * 7) / max);
        out += kBlocks[level];
    }
    return out;
}

bool render_report(const std::string& json_text, const ReportOptions& opt,
                   ReportResult& out, std::string* error) {
    out = ReportResult{};
    out.text += "espread fleet report\n";

    LoadedSeries series;
    if (!load_series(json_text, series, error)) return false;

    const std::size_t n = series.snapshots.size();
    out.text += "  series: " + fmt_u64(n) + " epochs x " +
                fmt_u64(series.epoch_steps) + " steps/epoch\n";
    if (n == 0) {
        out.text += "  (empty series: no epochs captured)\n";
        return true;
    }

    const FleetSnapshot& last = series.snapshots.back();
    const TelemetryCounters& t = last.totals;
    out.text += "\ntotals (through step " + fmt_u64(last.step) + ")\n";
    out.text += "  windows " + fmt_u64(t.windows) + " (loss windows " +
                fmt_u64(t.loss_windows) + ", idle " +
                fmt_u64(t.idle_windows) + ")\n";
    const double loss_rate =
        t.windows == 0
            ? 0.0
            : 100.0 * static_cast<double>(t.loss_windows) /
                  static_cast<double>(t.windows);
    out.text += "  unit losses " + fmt_u64(t.unit_losses) +
                " (loss-window rate " + fmt_double(loss_rate) + "%)\n";
    out.text += "  acks " + fmt_u64(t.acks_delivered) + " delivered / " +
                fmt_u64(t.acks_lost) + " lost\n";
    out.text += "  sessions " + fmt_u64(t.sessions_spawned) + " respawned / " +
                fmt_u64(t.sessions_completed) + " completed\n";
    out.text += "  playout CLF p50 " + fmt_u64(last.clf.quantile(0.50)) +
                ", p99 " + fmt_u64(last.clf.quantile(0.99)) + ", p999 " +
                fmt_u64(last.clf.quantile(0.999)) + ", max " +
                fmt_u64(last.clf.max_bucket_value()) + "\n";
    const std::uint64_t gov_total = t.governor_windows[0] +
                                    t.governor_windows[1] +
                                    t.governor_windows[2] +
                                    t.governor_windows[3];
    if (gov_total > 0) {
        out.text += "  governor occupancy";
        for (std::size_t s = 0; s < 4; ++s) {
            const double pct = 100.0 *
                               static_cast<double>(t.governor_windows[s]) /
                               static_cast<double>(gov_total);
            out.text += " ";
            out.text += contracts::kGovernorStateNames[s];
            out.text += " " + fmt_double(pct) + "%";
        }
        out.text += "\n";
    }

    // Per-epoch delta table, stride-sampled to the row budget (the last
    // epoch is always shown).
    const std::size_t max_rows = std::max<std::size_t>(opt.max_rows, 1);
    const std::size_t stride = (n + max_rows - 1) / max_rows;
    out.text += "\nper-epoch deltas";
    if (stride > 1) out.text += " (every " + fmt_u64(stride) + ")";
    out.text += "\n  epoch     step  windows   losses  loss_w  clf_p50  "
                "clf_p99  bound_p99\n";
    const auto append_row = [&out](const FleetSnapshot& s) {
        out.text += "  " + pad_left(fmt_u64(s.epoch), 5) +
                    pad_left(fmt_u64(s.step), 9) +
                    pad_left(fmt_u64(s.delta.windows), 9) +
                    pad_left(fmt_u64(s.delta.unit_losses), 9) +
                    pad_left(fmt_u64(s.delta.loss_windows), 8) +
                    pad_left(fmt_u64(s.clf_delta.quantile(0.50)), 9) +
                    pad_left(fmt_u64(s.clf_delta.quantile(0.99)), 9) +
                    pad_left(fmt_u64(s.bound_delta.quantile(0.99)), 11) + "\n";
    };
    for (std::size_t i = 0; i < n; i += stride) {
        append_row(series.snapshots[i]);
    }
    if ((n - 1) % stride != 0) append_row(series.snapshots[n - 1]);

    std::vector<std::uint64_t> windows_series;
    std::vector<std::uint64_t> losses_series;
    std::vector<std::uint64_t> clf_p99_series;
    windows_series.reserve(n);
    losses_series.reserve(n);
    clf_p99_series.reserve(n);
    for (const FleetSnapshot& s : series.snapshots) {
        windows_series.push_back(s.delta.windows);
        losses_series.push_back(s.delta.unit_losses);
        clf_p99_series.push_back(s.clf_delta.quantile(0.99));
    }
    out.text += "\nper-epoch sparklines\n";
    out.text += "  windows  " + sparkline(windows_series) + "\n";
    out.text += "  losses   " + sparkline(losses_series) + "\n";
    out.text += "  clf p99  " + sparkline(clf_p99_series) + "\n";

    std::vector<SloObjective> objectives = opt.objectives;
    if (objectives.empty()) objectives.push_back(default_objective());
    try {
        SloEvaluator evaluator(objectives);
        for (const FleetSnapshot& s : series.snapshots) {
            evaluator.on_snapshot(s);
        }
        out.text += "\nSLO health\n";
        for (std::size_t i = 0; i < objectives.size(); ++i) {
            append_slo_line(out.text, objectives[i], evaluator.status(i));
        }
        if (!evaluator.transitions().empty()) {
            out.text += "  transitions\n";
            for (const SloTransition& tr : evaluator.transitions()) {
                out.text += "    epoch " + pad_left(fmt_u64(tr.epoch), 5) +
                            "  " +
                            pad_right(objectives[tr.objective].name, 16) +
                            " " + obs::telemetry::slo_health_name(tr.from) +
                            " -> " + obs::telemetry::slo_health_name(tr.to) +
                            " (fast " + fmt_double(tr.fast_burn) + ", slow " +
                            fmt_double(tr.slow_burn) + ")\n";
            }
        }
        out.breached = evaluator.ever_breached();
        out.text += out.breached
                        ? "\nverdict: BREACH (error budget exhausted)\n"
                        : "\nverdict: PASS\n";
    } catch (const std::invalid_argument& e) {
        return set_error(error, std::string("slo: ") + e.what());
    }

    if (opt.prometheus) {
        out.text += "\n";
        out.text += obs::telemetry::prometheus_text(last);
    }
    return true;
}

int run_report_cli(const std::vector<std::string>& args, std::string& out) {
    static const char kUsage[] =
        "usage: espread_report <series.json> [--slo "
        "name,signal,threshold[,quantile[,fast,slow[,fast_burn,slow_burn]]]]"
        "... [--prometheus] [--max-rows N]\n";

    ReportOptions opt;
    std::vector<std::string> specs;
    std::vector<std::string> paths;
    const exp::Flag flags[] = {
        {"--slo", exp::TextList{&specs}},
        {"--prometheus", exp::Switch{&opt.prometheus}},
        {"--max-rows", exp::Count{&opt.max_rows, 1}},
    };
    std::string error = exp::parse_flags(args, flags, &paths);
    if (!error.empty() || paths.size() != 1) {
        if (!error.empty()) out += "espread_report: " + error + "\n";
        out += kUsage;
        return 1;
    }
    for (const std::string& spec : specs) {
        obs::telemetry::SloObjective o;
        if (!parse_objective_spec(spec, o, &error)) {
            out += "espread_report: " + error + "\n";
            return 1;
        }
        opt.objectives.push_back(std::move(o));
    }
    const std::string& path = paths.front();

    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        out += "espread_report: cannot open " + path + "\n";
        return 1;
    }
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, got);
    }
    std::fclose(f);

    ReportResult result;
    if (!render_report(text, opt, result, &error)) {
        out += result.text;
        out += "espread_report: " + error + "\n";
        return 1;
    }
    out += result.text;
    return result.breached ? 2 : 0;
}

}  // namespace espread::report
