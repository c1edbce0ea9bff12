// espread_report toolchain tests, driven in-process.
//
// The CLI is a thin shell over espread::report; these tests pin the JSON
// reader (a loaded series compares equal, snapshot for snapshot, to the
// registry that wrote it), the objective-spec grammar, the sparkline
// renderer, and — the CI contract — the exit codes: 0 for a healthy
// series, 2 when an SLO objective breaches, 1 on usage or parse errors.
#include "report.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/config.hpp"
#include "engine/engine.hpp"
#include "exp/json.hpp"
#include "json_read.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/telemetry/snapshot.hpp"

namespace {

using espread::engine::EngineConfig;
using espread::engine::ShardedEngine;
using espread::obs::telemetry::SloObjective;
using espread::obs::telemetry::SloSignal;
using espread::obs::telemetry::SnapshotRegistry;
using espread::report::LoadedSeries;
using espread::report::ReportOptions;
using espread::report::ReportResult;

/// A small but loss-rich engine run with telemetry on; returns the
/// rendered series JSON.  Fig. 8 defaults make the CLF tail heavy, so
/// the default p99-CLF<=2 objective breaches — the fixture both exit
/// paths are tested against.
std::string lossy_series_json() {
    EngineConfig cfg;
    cfg.sessions = 48;
    cfg.shards = 2;
    cfg.churn.enabled = true;
    cfg.governor.enabled = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_steps = 8;
    cfg.seed = 11;
    ShardedEngine engine(cfg);
    engine.run(48);
    return snapshot_series_json(*engine.telemetry());
}

std::string write_fixture(const std::string& name, const std::string& text) {
    const std::string path = testing::TempDir() + name;
    espread::exp::write_text_file(path, text);
    return path;
}

TEST(ReportJson, ParsesScalarsContainersAndRejectsGarbage) {
    using espread::report::JsonValue;
    using espread::report::parse_json;
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(
        R"({"a":1,"b":[true,null,"x\n"],"c":{"d":2.5},"e":-3})", v, &err))
        << err;
    EXPECT_EQ(v.at("a").as_u64(), 1u);
    ASSERT_EQ(v.at("b").array.size(), 3u);
    EXPECT_TRUE(v.at("b").array[0].boolean);
    EXPECT_EQ(v.at("b").array[2].string, "x\n");
    EXPECT_DOUBLE_EQ(v.at("c").at("d").number, 2.5);
    EXPECT_EQ(v.at("e").as_u64(), 0u);  // negatives clamp to 0
    EXPECT_EQ(v.at("missing").type, JsonValue::Type::kNull);

    EXPECT_FALSE(parse_json("{\"a\":}", v, &err));
    EXPECT_FALSE(parse_json("[1,2", v, &err));
    EXPECT_FALSE(parse_json("{} trailing", v, &err));
    EXPECT_FALSE(parse_json("", v, &err));
}

// Round trip: serialize a real registry, load it back, compare every
// snapshot with operator== (counters and all eight histograms).
TEST(ReportLoad, LoadedSeriesEqualsTheRegistryThatWroteIt) {
    EngineConfig cfg;
    cfg.sessions = 32;
    cfg.shards = 2;
    cfg.churn.enabled = true;
    cfg.governor.enabled = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_steps = 4;
    cfg.seed = 7;
    ShardedEngine engine(cfg);
    engine.run(20);
    const SnapshotRegistry* reg = engine.telemetry();
    ASSERT_NE(reg, nullptr);
    ASSERT_EQ(reg->snapshots().size(), 5u);

    LoadedSeries series;
    std::string err;
    ASSERT_TRUE(espread::report::load_series(snapshot_series_json(*reg),
                                             series, &err))
        << err;
    EXPECT_EQ(series.epoch_steps, 4u);
    ASSERT_EQ(series.snapshots.size(), reg->snapshots().size());
    for (std::size_t i = 0; i < series.snapshots.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(series.snapshots[i], reg->snapshots()[i]);
    }
}

TEST(ReportLoad, RejectsWrongFormatAndInconsistentTotals) {
    LoadedSeries series;
    std::string err;
    EXPECT_FALSE(espread::report::load_series(
        R"({"format":2,"epoch_steps":4,"epochs":0,"snapshots":[]})", series,
        &err));
    EXPECT_FALSE(espread::report::load_series(
        R"({"format":1,"epoch_steps":0,"epochs":0,"snapshots":[]})", series,
        &err));
    EXPECT_FALSE(espread::report::load_series(
        R"({"format":1,"epoch_steps":4,"epochs":2,"snapshots":[]})", series,
        &err));
    // A histogram whose bucket counts disagree with its "total".
    EXPECT_FALSE(espread::report::load_series(
        R"({"format":1,"epoch_steps":4,"epochs":1,"snapshots":[
             {"epoch":0,"step":4,
              "totals":{"windows":1,"unit_losses":0,"loss_windows":0,
                        "idle_windows":0,"acks_delivered":0,"acks_lost":0,
                        "sessions_spawned":0,"sessions_completed":0,
                        "governor_windows":[1,0,0,0]},
              "delta":{"windows":1,"unit_losses":0,"loss_windows":0,
                       "idle_windows":0,"acks_delivered":0,"acks_lost":0,
                       "sessions_spawned":0,"sessions_completed":0,
                       "governor_windows":[1,0,0,0]},
              "clf":{"total":5,"buckets":[[0,1]]},
              "loss_run":{"total":0,"buckets":[]},
              "bound":{"total":0,"buckets":[]},
              "governor_dwell":{"total":0,"buckets":[]},
              "clf_delta":{"total":0,"buckets":[]},
              "loss_run_delta":{"total":0,"buckets":[]},
              "bound_delta":{"total":0,"buckets":[]},
              "governor_dwell_delta":{"total":0,"buckets":[]}}]})",
        series, &err));
    EXPECT_NE(err.find("total"), std::string::npos);
}

TEST(ReportSpec, ObjectiveGrammarParsesAndValidates) {
    SloObjective o;
    std::string err;
    ASSERT_TRUE(espread::report::parse_objective_spec(
        "dwell_tail,governor_dwell,32,0.9,2,16,10,4", o, &err))
        << err;
    EXPECT_EQ(o.name, "dwell_tail");
    EXPECT_EQ(o.signal, SloSignal::kGovernorDwell);
    EXPECT_EQ(o.threshold, 32u);
    EXPECT_DOUBLE_EQ(o.quantile, 0.9);
    EXPECT_EQ(o.fast_window, 2u);
    EXPECT_EQ(o.slow_window, 16u);
    EXPECT_DOUBLE_EQ(o.fast_burn, 10.0);
    EXPECT_DOUBLE_EQ(o.slow_burn, 4.0);

    ASSERT_TRUE(espread::report::parse_objective_spec("t,clf,2", o, &err));
    EXPECT_DOUBLE_EQ(o.quantile, 0.99);  // defaults kept

    EXPECT_FALSE(espread::report::parse_objective_spec("t,latency,2", o, &err));
    EXPECT_FALSE(espread::report::parse_objective_spec("t,clf", o, &err));
    EXPECT_FALSE(espread::report::parse_objective_spec("t,clf,x", o, &err));
    EXPECT_FALSE(
        espread::report::parse_objective_spec("t,clf,2,1.5", o, &err));
    EXPECT_FALSE(
        espread::report::parse_objective_spec("t,clf,2,0.99,64,4", o, &err));
}

TEST(ReportRender, SparklineScalesToSeriesMax) {
    EXPECT_EQ(espread::report::sparkline({0, 1, 2, 4}),
              "▁▂▄█");
    EXPECT_EQ(espread::report::sparkline({0, 0, 0}),
              "▁▁▁");
    EXPECT_EQ(espread::report::sparkline({}), "");
}

TEST(ReportRender, RendersTablesSparklinesAndVerdict) {
    ReportOptions opt;  // default objective: p99 CLF <= 2
    ReportResult result;
    std::string err;
    ASSERT_TRUE(espread::report::render_report(lossy_series_json(), opt,
                                               result, &err))
        << err;
    EXPECT_NE(result.text.find("espread fleet report"), std::string::npos);
    EXPECT_NE(result.text.find("per-epoch deltas"), std::string::npos);
    EXPECT_NE(result.text.find("governor occupancy"), std::string::npos);
    EXPECT_NE(result.text.find("SLO health"), std::string::npos);
    // Fig. 8 losses blow the strict default objective.
    EXPECT_TRUE(result.breached);
    EXPECT_NE(result.text.find("verdict: BREACH"), std::string::npos);
}

TEST(ReportCli, ExitCodesCoverHealthyBreachedAndErrorPaths) {
    const std::string path =
        write_fixture("report_series.json", lossy_series_json());
    std::string out;

    // Breached fixture + default strict objective -> exit 2 (the CI gate).
    EXPECT_EQ(espread::report::run_report_cli({path}, out), 2);
    EXPECT_NE(out.find("verdict: BREACH"), std::string::npos);

    // A loose objective the same series satisfies -> exit 0.
    out.clear();
    EXPECT_EQ(espread::report::run_report_cli(
                  {path, "--slo", "clf_loose,clf,4096,0.99", "--prometheus"},
                  out),
              0);
    EXPECT_NE(out.find("verdict: PASS"), std::string::npos);
    EXPECT_NE(out.find("espread_windows_total"), std::string::npos);

    // Usage and input errors -> exit 1.
    out.clear();
    EXPECT_EQ(espread::report::run_report_cli({}, out), 1);
    EXPECT_EQ(espread::report::run_report_cli({path, "--bogus"}, out), 1);
    EXPECT_EQ(espread::report::run_report_cli({path, "--slo"}, out), 1);
    EXPECT_EQ(
        espread::report::run_report_cli({path, "--slo", "x,clf"}, out), 1);
    EXPECT_EQ(espread::report::run_report_cli({"/nonexistent.json"}, out), 1);
    const std::string bad =
        write_fixture("report_bad.json", "{\"format\":1,");
    EXPECT_EQ(espread::report::run_report_cli({bad}, out), 1);
}

// Numbers from the command line or a series file are untrusted: infinite
// or larger than the integer they land in, they must be refused (exit 1),
// never cast (undefined behaviour, caught by the UBSan CI job).
TEST(ReportCli, OutOfRangeNumbersAreRejectedNotCast) {
    const std::string series = lossy_series_json();
    const std::string path = write_fixture("report_range.json", series);
    std::string out;
    for (const char* spec :
         {"a,clf,inf", "a,clf,1e30", "a,clf,2,0.99,1e300,4", "a,clf,nan"}) {
        SCOPED_TRACE(spec);
        EXPECT_EQ(espread::report::run_report_cli({path, "--slo", spec}, out),
                  1);
    }
    EXPECT_EQ(
        espread::report::run_report_cli({path, "--max-rows", "1e30"}, out), 1);

    const std::size_t at = series.find("\"windows\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t value = at + 10;
    const std::size_t end = series.find_first_of(",}", value);
    for (const char* windows : {"1e999", "1e20", "-1"}) {
        SCOPED_TRACE(windows);
        std::string bad = series;
        bad.replace(value, end - value, windows);
        std::string err;
        LoadedSeries loaded;
        EXPECT_FALSE(espread::report::load_series(bad, loaded, &err));
        EXPECT_EQ(espread::report::run_report_cli(
                      {write_fixture("report_range_bad.json", bad)}, out),
                  1);
    }
}

TEST(ReportJson, NumbersOutsideTheU64RangeAreFlaggedNotCast) {
    using espread::report::JsonValue;
    JsonValue v;
    std::string err;
    EXPECT_FALSE(espread::report::parse_json("[1e999]", v, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos);
    ASSERT_TRUE(espread::report::parse_json("[1e20, 18446744073709549568]", v,
                                            &err))
        << err;
    EXPECT_FALSE(v.array[0].is_u64());
    EXPECT_EQ(v.array[0].as_u64(), UINT64_MAX);  // saturates, no UB
    EXPECT_TRUE(v.array[1].is_u64());
    EXPECT_EQ(v.array[1].as_u64(), 18446744073709549568ull);
}

}  // namespace
