// The contract registry (sim/contracts.hpp) checked against real output.
//
// Name-translation functions index the registry tables directly, so they
// cannot drift.  The metric and JSON-key tables are different: their
// producers write string literals.  Each test below runs the producer with
// every gated group switched on and requires the set of names it emits to
// equal the table exactly — an unregistered name and a table entry nothing
// emits both fail.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "engine/engine.hpp"
#include "json_read.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/telemetry/snapshot.hpp"
#include "obs/trace.hpp"
#include "protocol/governor.hpp"
#include "protocol/session.hpp"
#include "sim/contracts.hpp"

namespace {

namespace contracts = espread::contracts;
using espread::engine::EngineConfig;
using espread::engine::ShardedEngine;
using espread::report::JsonValue;
using Names = std::set<std::string>;

template <std::size_t N>
Names table(const std::string_view (&t)[N]) {
    return Names(std::begin(t), std::end(t));
}

Names metric_names(const espread::obs::MetricsRegistry& m) {
    Names out;
    for (const auto& [name, value] : m.counters()) out.insert(name);
    for (const auto& [name, hist] : m.histograms()) out.insert(name);
    return out;
}

/// Every object key in `v`, recursively, except under a key in `skip`
/// (whose members are data, not schema).
void collect_keys(const JsonValue& v, const Names& skip, Names& out) {
    for (const JsonValue& e : v.array) collect_keys(e, skip, out);
    for (const auto& [key, member] : v.object) {
        out.insert(key);
        if (skip.count(key) == 0) collect_keys(member, skip, out);
    }
}

Names json_keys(const std::string& text, const Names& skip) {
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(espread::report::parse_json(text, doc, &err)) << err;
    Names out;
    collect_keys(doc, skip, out);
    return out;
}

/// Engine run with every optional arm on: FEC-lite, NACK-lite,
/// governor-lite, churn, telemetry and the metrics registry.
struct FullEngine {
    static EngineConfig config() {
        EngineConfig cfg;
        cfg.sessions = 48;
        cfg.shards = 2;
        cfg.churn.enabled = true;
        cfg.fec.enabled = true;
        cfg.fec.nack = true;
        cfg.governor.enabled = true;
        cfg.telemetry.enabled = true;
        cfg.telemetry.epoch_steps = 8;
        cfg.collect_metrics = true;
        cfg.seed = 15;
        return cfg;
    }
    FullEngine() { engine.run(32); }
    ShardedEngine engine{config()};
};

TEST(Contracts, SessionMetricNamesEqualTheRegistry) {
    espread::proto::SessionConfig cfg;
    cfg.stream.kind = espread::proto::StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 16;
    cfg.num_windows = 10;
    cfg.scheme = espread::proto::Scheme::kHybridSpreadRlc;
    cfg.governor.enabled = true;
    cfg.recovery.enabled = true;
    cfg.data_impairment.reorder_rate = 0.05;
    cfg.feedback_impairment.corrupt_rate = 0.05;
    cfg.collect_metrics = true;
    cfg.seed = 15;
    const espread::proto::SessionResult r = espread::proto::run_session(cfg);
    EXPECT_EQ(metric_names(r.metrics), table(contracts::kSessionMetricNames));
}

TEST(Contracts, EngineMetricNamesEqualTheRegistry) {
    FullEngine full;
    EXPECT_EQ(metric_names(full.engine.summary().metrics),
              table(contracts::kEngineMetricNames));
}

TEST(Contracts, EngineSummaryKeysEqualTheRegistry) {
    // "metrics" holds the registry checked above; "bins" is keyed by
    // histogram value.
    FullEngine full;
    EXPECT_EQ(json_keys(espread::engine::summary_json(full.engine.summary()),
                        {"metrics", "bins"}),
              table(contracts::kEngineSummaryKeys));
}

TEST(Contracts, TelemetrySeriesKeysEqualTheRegistry) {
    FullEngine full;
    const auto* series = full.engine.telemetry();
    ASSERT_NE(series, nullptr);
    ASSERT_FALSE(series->snapshots().empty());
    EXPECT_EQ(json_keys(snapshot_series_json(*series), {}),
              table(contracts::kTelemetrySeriesKeys));
}

TEST(Contracts, PrometheusNamesComeFromTheSignalAndSeriesTables) {
    FullEngine full;
    const std::string text = espread::obs::telemetry::prometheus_text(
        full.engine.telemetry()->snapshots().back(), "espread");
    const Names series = table(contracts::kTelemetrySeriesKeys);
    Names histograms;
    std::size_t counters = 0;
    std::istringstream lines(text);
    std::string hash, type, metric, kind;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("# TYPE ", 0) != 0) continue;
        std::istringstream(line) >> hash >> type >> metric >> kind;
        ASSERT_EQ(metric.rfind("espread_", 0), 0u) << line;
        std::string name = metric.substr(8);
        if (kind == "histogram") {
            histograms.insert(name);
            continue;
        }
        ASSERT_EQ(kind, "counter") << line;
        ASSERT_GT(name.size(), 6u) << line;
        ASSERT_EQ(name.substr(name.size() - 6), "_total") << line;
        name.resize(name.size() - 6);
        EXPECT_EQ(series.count(name), 1u) << "counter " << name;
        ++counters;
    }
    EXPECT_EQ(histograms, table(contracts::kTelemetrySignalNames));
    EXPECT_GT(counters, 0u);
}

TEST(Contracts, NameLookupsFallBackOutOfRange) {
    using espread::obs::Actor;
    using espread::obs::EventType;
    using espread::obs::telemetry::SloHealth;
    using espread::obs::telemetry::SloSignal;
    using espread::proto::GovernorState;
    EXPECT_STREQ(espread::obs::event_name(EventType::kRepairShed),
                 "RepairShed");
    EXPECT_STREQ(espread::obs::event_name(static_cast<EventType>(99)),
                 "Unknown");
    EXPECT_STREQ(espread::obs::actor_name(Actor::kFeedbackChannel),
                 "feedback channel");
    EXPECT_STREQ(espread::obs::actor_name(static_cast<Actor>(99)), "unknown");
    EXPECT_STREQ(espread::proto::governor_state_name(GovernorState::kRecovering),
                 "recovering");
    EXPECT_STREQ(
        espread::proto::governor_state_name(static_cast<GovernorState>(9)),
        "?");
    EXPECT_STREQ(espread::obs::telemetry::slo_health_name(SloHealth::kBreached),
                 "breached");
    EXPECT_STREQ(
        espread::obs::telemetry::slo_health_name(static_cast<SloHealth>(9)),
        "?");
    EXPECT_STREQ(
        espread::obs::telemetry::slo_signal_name(static_cast<SloSignal>(9)),
        "?");
    // parse_slo_signal inverts slo_signal_name and rejects anything else.
    for (const std::string_view name : contracts::kTelemetrySignalNames) {
        SloSignal s = SloSignal::kClf;
        ASSERT_TRUE(espread::obs::telemetry::parse_slo_signal(
            std::string(name), s));
        EXPECT_EQ(espread::obs::telemetry::slo_signal_name(s), name);
    }
    SloSignal untouched = SloSignal::kBound;
    EXPECT_FALSE(espread::obs::telemetry::parse_slo_signal("window_clf",
                                                           untouched));
    EXPECT_EQ(untouched, SloSignal::kBound);
}

}  // namespace
