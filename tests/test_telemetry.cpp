// Fleet telemetry plane contract tests.
//
// Three layers are pinned here: the Histogram's bucket algebra
// (tiling, monotonicity, merge == concat — the properties that make
// shard-order folding deterministic), the slab/snapshot plumbing (epoch
// deltas, byte-identical series across shard counts and same-seed runs,
// reconciliation of telemetry totals against EngineSummary and the
// scalar reference), and the SLO evaluator's two-window burn-rate state
// machine including its kSloHealth trace emission.
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "engine/engine.hpp"
#include "engine/governor_lite.hpp"
#include "obs/telemetry/slab.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/telemetry/snapshot.hpp"
#include "obs/trace.hpp"

namespace {

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::ShardedEngine;
using espread::engine::summary_json;
using espread::obs::Histogram;
using espread::obs::TraceEvent;
using espread::obs::TraceRecorder;
using espread::obs::telemetry::FleetSnapshot;
using espread::obs::telemetry::SloEvaluator;
using espread::obs::telemetry::SloHealth;
using espread::obs::telemetry::SloObjective;
using espread::obs::telemetry::SnapshotRegistry;
using espread::obs::telemetry::TelemetryCounters;
using espread::obs::telemetry::TelemetrySlab;

/// Deterministic value stream for property tests (no std entropy source,
/// per the repo's D1 contract).
std::uint64_t xorshift(std::uint64_t& s) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

TEST(QuantileHistogram, BucketsTileTheNonNegativeIntegers) {
    for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
        SCOPED_TRACE(b);
        const std::uint64_t lo = Histogram::bucket_lower(b);
        const std::uint64_t hi = Histogram::bucket_upper(b);
        ASSERT_LE(lo, hi);
        EXPECT_EQ(Histogram::bucket_for(lo), b);
        EXPECT_EQ(Histogram::bucket_for(hi), b);
        // Contiguous: the next bucket starts exactly one past this one.
        EXPECT_EQ(Histogram::bucket_lower(b + 1), hi + 1);
    }
}

TEST(QuantileHistogram, BucketForIsMonotone) {
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 200; ++v) values.push_back(v);
    for (unsigned oct = 8; oct < 63; ++oct) {
        const std::uint64_t p = std::uint64_t{1} << oct;
        values.push_back(p - 1);
        values.push_back(p);
        values.push_back(p + 1);
    }
    std::sort(values.begin(), values.end());
    for (std::size_t i = 1; i < values.size(); ++i) {
        EXPECT_LE(Histogram::bucket_for(values[i - 1]),
                  Histogram::bucket_for(values[i]))
            << values[i - 1] << " vs " << values[i];
    }
}

TEST(QuantileHistogram, QuantilesExactInLinearRange) {
    // Values < kLinearMax land in exact buckets, so nearest-rank quantiles
    // match the multiset exactly.
    Histogram h;
    const std::vector<std::uint64_t> sorted = {1, 1, 2, 3, 5, 8, 8, 8, 13, 21};
    for (const std::uint64_t v : sorted) h.record(v);
    ASSERT_EQ(h.total(), sorted.size());
    for (const double q : {0.05, 0.10, 0.25, 0.50, 0.90, 0.99, 1.0}) {
        // Nearest-rank: the ceil(q*n)-th smallest (1-based), clamped.
        std::size_t rank = static_cast<std::size_t>(
            std::max(1.0, std::min<double>(
                              static_cast<double>(sorted.size()),
                              std::ceil(q * static_cast<double>(sorted.size())))));
        EXPECT_EQ(h.quantile(q), sorted[rank - 1]) << "q=" << q;
    }
    EXPECT_EQ(h.quantile(0.0), sorted.front());
    EXPECT_EQ(h.max_bucket_value(), 21u);
    EXPECT_EQ(Histogram{}.quantile(0.5), 0u);
}

TEST(QuantileHistogram, QuantileIsMonotoneInQAndBoundsTheValue) {
    Histogram h;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = xorshift(s) % 1000000;
        values.push_back(v);
        h.record(v);
    }
    std::uint64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const std::uint64_t cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
    // The reported quantile is the containing bucket's upper bound, so it
    // never understates the true quantile and overstates by < 25%.
    std::sort(values.begin(), values.end());
    const std::uint64_t true_p99 = values[static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(values.size()))) - 1];
    const std::uint64_t rep_p99 = h.quantile(0.99);
    EXPECT_GE(rep_p99, true_p99);
    EXPECT_LE(rep_p99, true_p99 + true_p99 / 4 + 1);
}

TEST(QuantileHistogram, MergeEqualsConcat) {
    Histogram a;
    Histogram b;
    Histogram concat;
    std::uint64_t s = 42;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = xorshift(s) % 100000;
        if (i % 3 == 0) {
            a.record(v);
        } else {
            b.record(v);
        }
        concat.record(v);
    }
    Histogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged, concat);
    // And merge order cannot matter (element-wise addition commutes).
    Histogram merged_rev = b;
    merged_rev.merge(a);
    EXPECT_EQ(merged_rev, concat);
}

TEST(QuantileHistogram, DeltaUndoesAccumulation) {
    Histogram prev;
    std::uint64_t s = 7;
    for (int i = 0; i < 300; ++i) prev.record(xorshift(s) % 500);
    Histogram now = prev;
    Histogram epoch_only;
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t v = xorshift(s) % 500;
        now.record(v);
        epoch_only.record(v);
    }
    EXPECT_EQ(Histogram::delta(now, prev), epoch_only);
}

TEST(QuantileHistogram, CountLeExactBelowLinearMaxConservativeAbove) {
    Histogram h;
    for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
    // Exact in the linear range.
    EXPECT_EQ(h.count_le(0), 1u);
    EXPECT_EQ(h.count_le(10), 11u);
    EXPECT_EQ(h.count_le(31), 32u);
    // Above it, whole buckets only: never an overcount.
    for (std::uint64_t v = 32; v < 100; ++v) {
        EXPECT_LE(h.count_le(v), v + 1) << v;
    }
    EXPECT_EQ(h.count_le(1000), 100u);
}

TEST(QuantileHistogram, RestoreBucketRebuildsSerializedCounts) {
    Histogram h;
    std::uint64_t s = 99;
    for (int i = 0; i < 400; ++i) h.record(xorshift(s) % 10000);
    Histogram rebuilt;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        rebuilt.restore_bucket(b, h.counts()[b]);
    }
    // The buckets alone cannot recover the exact sum; it is serialized
    // beside them.
    EXPECT_NE(rebuilt, h);
    rebuilt.restore_sum(h.sum());
    EXPECT_EQ(rebuilt, h);
    // Out-of-range indices are ignored, not UB.
    rebuilt.restore_bucket(Histogram::kBuckets + 5, 17);
    EXPECT_EQ(rebuilt, h);
}

/// Hands one window's CLF and bound to the slab the way a range does.
void observe_window(TelemetrySlab& slab, std::uint64_t clf,
                    std::uint64_t bound) {
    Histogram clf_hist;
    Histogram bound_hist;
    clf_hist.record(clf);
    bound_hist.record(bound);
    slab.observe_windows(clf_hist, bound_hist);
}

// The observe_* sites feed only the histograms; the counters arrive by
// the engine's per-range fold (pinned by TotalsReconcileWithEngineSummary).
TEST(TelemetrySlab, ObserveSitesRecordHistograms) {
    TelemetrySlab slab;
    observe_window(slab, /*clf=*/3, /*bound=*/5);
    observe_window(slab, /*clf=*/0, /*bound=*/5);
    slab.observe_loss_run(4);
    slab.observe_governor_exit(12);

    EXPECT_EQ(slab.counters, TelemetryCounters{});
    EXPECT_EQ(slab.window_clf.total(), 2u);
    EXPECT_EQ(slab.window_clf.quantile(1.0), 3u);
    EXPECT_EQ(slab.bound_used.total(), 2u);
    EXPECT_EQ(slab.bound_used.quantile(1.0), 5u);
    EXPECT_EQ(slab.loss_run.quantile(1.0), 4u);
    EXPECT_EQ(slab.governor_dwell.quantile(1.0), 12u);
}

TEST(SnapshotRegistry, RejectsZeroEpochStepsAndComputesDeltas) {
    EXPECT_THROW(SnapshotRegistry{0}, std::invalid_argument);

    SnapshotRegistry reg(4);
    EXPECT_TRUE(reg.due(4));
    EXPECT_TRUE(reg.due(8));
    EXPECT_FALSE(reg.due(5));

    TelemetrySlab slab;
    slab.counters.windows = 1;
    slab.counters.unit_losses = 1;
    observe_window(slab, 2, 6);
    const FleetSnapshot first = reg.capture(4, &slab, 1);
    // First snapshot: the epoch delta IS the cumulative state.
    EXPECT_EQ(first.delta, first.totals);
    EXPECT_EQ(first.totals.windows, 1u);
    EXPECT_EQ(first.clf_delta, first.clf);

    slab.counters.windows += 2;
    slab.counters.unit_losses += 2;
    observe_window(slab, 7, 6);
    observe_window(slab, 7, 6);
    const FleetSnapshot second = reg.capture(8, &slab, 1);
    EXPECT_EQ(second.totals.windows, 3u);
    EXPECT_EQ(second.delta.windows, 2u);
    EXPECT_EQ(second.delta.unit_losses, 2u);
    EXPECT_EQ(second.clf_delta.total(), 2u);
    EXPECT_EQ(second.clf_delta.quantile(1.0), 7u);
    EXPECT_EQ(second.epoch, 1u);
    EXPECT_EQ(reg.latest(), second);
}

EngineConfig telemetry_config() {
    EngineConfig cfg;
    cfg.sessions = 96;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.alpha = 0.5;
    cfg.feedback_loss = {0.95, 0.5};
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 4;
    cfg.churn.mean_lifetime_windows = 12.0;
    cfg.churn.mean_arrival_gap_windows = 3.0;
    cfg.governor.enabled = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_steps = 8;
    cfg.seed = 2026;
    return cfg;
}

std::string series_for(EngineConfig cfg, std::size_t shards,
                       std::size_t windows) {
    cfg.shards = shards;
    ShardedEngine engine(cfg);
    engine.run(windows);
    const SnapshotRegistry* reg = engine.telemetry();
    EXPECT_NE(reg, nullptr);
    return snapshot_series_json(*reg);
}

// The tentpole determinism claim: the rendered snapshot *series* — every
// counter, every histogram bucket, every epoch delta — is byte-identical
// across shard counts and across same-seed runs.
TEST(EngineTelemetry, SnapshotSeriesIsByteIdenticalAcrossShardCounts) {
    const EngineConfig cfg = telemetry_config();
    const std::string one = series_for(cfg, 1, 64);
    const std::string two = series_for(cfg, 2, 64);
    const std::string eight = series_for(cfg, 8, 64);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
    EXPECT_EQ(one, series_for(cfg, 2, 64));  // same-seed rerun
    EXPECT_NE(one.find("\"epochs\":8"), std::string::npos);
}

TEST(EngineTelemetry, DisabledByDefaultAndRegistryNullWhenOff) {
    EngineConfig cfg;
    cfg.sessions = 4;
    cfg.shards = 1;
    ShardedEngine engine(cfg);
    engine.run(4);
    EXPECT_EQ(engine.telemetry(), nullptr);
}

// Telemetry is an observer: totals must reconcile exactly with the
// engine's own deterministic summary, the summary must not change when
// telemetry is switched on, and the loss-run histogram's mass must
// account for every lost unit (runs here are <= 24 units, inside the
// exact bucket range).
TEST(EngineTelemetry, TotalsReconcileWithEngineSummary) {
    EngineConfig cfg = telemetry_config();
    cfg.window_ldus = 12;  // 24 units/window: every loss run exactly bucketed
    for (const std::size_t shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        EngineConfig on = cfg;
        on.shards = shards;
        EngineConfig off = on;
        off.telemetry.enabled = false;
        ShardedEngine with(on);
        ShardedEngine without(off);
        with.run(64);
        without.run(64);
        EXPECT_EQ(summary_json(with.summary()), summary_json(without.summary()));
    }
    cfg.shards = 4;
    ShardedEngine engine(cfg);
    engine.run(64);
    const EngineSummary s = engine.summary();
    ASSERT_NE(engine.telemetry(), nullptr);
    ASSERT_FALSE(engine.telemetry()->empty());
    const FleetSnapshot& last = engine.telemetry()->latest();

    EXPECT_EQ(last.totals.windows, s.windows);
    EXPECT_EQ(last.totals.unit_losses, s.unit_losses);
    EXPECT_EQ(last.totals.acks_delivered, s.acks_delivered);
    EXPECT_EQ(last.totals.acks_lost, s.acks_lost);
    EXPECT_EQ(last.totals.idle_windows, s.idle_windows);
    EXPECT_EQ(last.totals.sessions_completed, s.sessions_completed);
    // No FEC arm here, so a window lost units iff its CLF is non-zero.
    EXPECT_EQ(last.totals.loss_windows, s.windows - s.clf_histogram.counts()[0]);
    // The config exercises every counter.
    EXPECT_GT(last.totals.idle_windows, 0u);
    EXPECT_GT(last.totals.acks_lost, 0u);
    EXPECT_GT(last.totals.sessions_completed, 0u);
    EXPECT_GT(last.totals.loss_windows, 0u);
    // The pool counts its generation-0 prefill as spawned; the telemetry
    // plane counts only churn arrivals observed while stepping.
    EXPECT_EQ(last.totals.sessions_spawned + cfg.sessions, s.sessions_spawned);
    // Governor occupancy: same four counters on both planes, and they
    // partition the executed windows.
    std::uint64_t occupied = 0;
    for (std::size_t st = 0; st < 4; ++st) {
        EXPECT_EQ(last.totals.governor_windows[st], s.governor_windows[st]);
        occupied += last.totals.governor_windows[st];
    }
    EXPECT_EQ(occupied, s.windows);
    EXPECT_GT(last.totals.governor_windows[espread::engine::kGovNormal], 0u);
    // Every lost unit sits in exactly one maximal loss run.
    std::uint64_t run_mass = 0;
    for (std::size_t b = 0; b < Histogram::kLinearMax; ++b) {
        run_mass += static_cast<std::uint64_t>(b) * last.loss_run.counts()[b];
    }
    EXPECT_EQ(last.loss_run.total(),
              last.loss_run.count_le(Histogram::kLinearMax - 1));
    EXPECT_EQ(run_mass, s.unit_losses);
    EXPECT_EQ(last.clf.total(), s.windows);
}

// The same run-mass reconciliation on long bursts: n = 130 spans three
// loss words and a near-absorbing bad state (p_bad = 0.995) loses whole
// words at a time, so loss runs fill all-ones words and cross word
// boundaries, past the histogram's exact buckets (the exact sum still
// accounts for every unit).  In-order playback keeps the channel's runs
// whole; spreading splits them.
TEST(EngineTelemetry, LongBurstRunMassReconcilesWithUnitLosses) {
    for (const bool spread : {false, true}) {
        SCOPED_TRACE(spread);
        EngineConfig cfg = telemetry_config();
        cfg.window_ldus = 130;
        cfg.data_loss = {0.92, 0.995};
        cfg.spread = spread;
        cfg.shards = 3;
        ShardedEngine engine(cfg);
        engine.run(64);
        const EngineSummary s = engine.summary();
        const FleetSnapshot& last = engine.telemetry()->latest();
        EXPECT_EQ(last.loss_run.sum(), s.unit_losses);
        EXPECT_EQ(last.totals.unit_losses, s.unit_losses);
        EXPECT_EQ(last.clf.total(), s.windows);
        if (!spread) {
            // Whole windows lost: runs of all 130 units, across all
            // three words.
            EXPECT_GE(last.loss_run.max_bucket_value(), 130u);
        }
        EngineConfig one = cfg;
        one.shards = 1;
        EXPECT_EQ(series_for(cfg, 3, 64), series_for(one, 1, 64));
    }
}

SloObjective strict_objective() {
    SloObjective o;
    o.name = "clf_tail";
    o.threshold = 2;
    o.quantile = 0.99;
    o.fast_window = 4;
    o.slow_window = 64;
    o.fast_burn = 14.0;
    o.slow_burn = 6.0;
    return o;
}

FleetSnapshot synthetic_epoch(std::uint64_t epoch, std::uint64_t good,
                              std::uint64_t bad) {
    FleetSnapshot s;
    s.epoch = epoch;
    s.step = (epoch + 1) * 8;
    for (std::uint64_t i = 0; i < good; ++i) s.clf_delta.record(0);  // under the threshold
    for (std::uint64_t i = 0; i < bad; ++i) s.clf_delta.record(10);  // over it
    return s;
}

TEST(SloEvaluator, WalksOkBurningBreachedAndRecovers) {
    TraceRecorder sink;
    SloEvaluator eval({strict_objective()}, &sink);
    std::uint64_t epoch = 0;
    // 96 clean epochs: budget untouched.
    for (; epoch < 96; ++epoch) eval.on_snapshot(synthetic_epoch(epoch, 1000, 0));
    EXPECT_EQ(eval.status(0).health, SloHealth::kOk);
    EXPECT_FALSE(eval.ever_breached());
    // One fully-bad epoch: the fast window fires, the slow one dilutes it.
    eval.on_snapshot(synthetic_epoch(epoch++, 0, 1000));
    EXPECT_EQ(eval.status(0).health, SloHealth::kBurning);
    // Three more: the slow window crosses too -> breached.
    for (int i = 0; i < 3; ++i) {
        eval.on_snapshot(synthetic_epoch(epoch++, 0, 1000));
    }
    EXPECT_EQ(eval.status(0).health, SloHealth::kBreached);
    EXPECT_TRUE(eval.ever_breached());
    EXPECT_GE(eval.status(0).fast_burn, 14.0);
    EXPECT_GE(eval.status(0).slow_burn, 6.0);
    // Recovery: clean epochs drain the fast window -> back to kOk, but
    // the breach verdict stays sticky.
    for (int i = 0; i < 8; ++i) {
        eval.on_snapshot(synthetic_epoch(epoch++, 1000, 0));
    }
    EXPECT_EQ(eval.status(0).health, SloHealth::kOk);
    EXPECT_TRUE(eval.ever_breached());

    ASSERT_EQ(eval.transitions().size(), 3u);
    EXPECT_EQ(eval.transitions()[0].to, SloHealth::kBurning);
    EXPECT_EQ(eval.transitions()[0].epoch, 96u);
    EXPECT_EQ(eval.transitions()[1].to, SloHealth::kBreached);
    EXPECT_EQ(eval.transitions()[2].to, SloHealth::kOk);

    // Each transition was mirrored as a kSloHealth trace event.
    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].type, espread::obs::EventType::kSloHealth);
        EXPECT_EQ(events[i].window, eval.transitions()[i].epoch);
        EXPECT_EQ(events[i].seq, 0u);  // objective index
        EXPECT_EQ(events[i].arg,
                  static_cast<std::int64_t>(eval.transitions()[i].to));
    }
}

TEST(SloEvaluator, EmptyEpochsSpendNoBudget) {
    SloEvaluator eval({strict_objective()});
    for (std::uint64_t e = 0; e < 8; ++e) {
        eval.on_snapshot(synthetic_epoch(e, 0, 0));
    }
    EXPECT_EQ(eval.status(0).health, SloHealth::kOk);
    EXPECT_EQ(eval.status(0).fast_burn, 0.0);
}

TEST(SloEvaluator, RejectsOutOfOrderEpochsAndBadObjectives) {
    SloEvaluator eval({strict_objective()});
    eval.on_snapshot(synthetic_epoch(0, 10, 0));
    eval.on_snapshot(synthetic_epoch(1, 10, 0));
    EXPECT_THROW(eval.on_snapshot(synthetic_epoch(1, 10, 0)),
                 std::invalid_argument);

    SloObjective bad = strict_objective();
    bad.quantile = 1.0;  // budget would be zero
    EXPECT_THROW(SloEvaluator{std::vector<SloObjective>{bad}},
                 std::invalid_argument);
    bad = strict_objective();
    bad.fast_window = 128;  // fast wider than slow
    EXPECT_THROW(SloEvaluator{std::vector<SloObjective>{bad}},
                 std::invalid_argument);
    bad = strict_objective();
    bad.name.clear();
    EXPECT_THROW(SloEvaluator{std::vector<SloObjective>{bad}},
                 std::invalid_argument);
}

TEST(SloEvaluator, SignalNamesRoundTrip) {
    using espread::obs::telemetry::parse_slo_signal;
    using espread::obs::telemetry::slo_signal_name;
    using espread::obs::telemetry::SloSignal;
    for (const SloSignal sig :
         {SloSignal::kClf, SloSignal::kLossRun, SloSignal::kBound,
          SloSignal::kGovernorDwell}) {
        SloSignal parsed = SloSignal::kClf;
        ASSERT_TRUE(parse_slo_signal(slo_signal_name(sig), parsed));
        EXPECT_EQ(parsed, sig);
    }
    SloSignal parsed = SloSignal::kClf;
    EXPECT_FALSE(parse_slo_signal("latency", parsed));
}

// The engine's Prometheus exposition is derived from the same snapshot;
// spot-check shape and a few exact values.
TEST(EngineTelemetry, PrometheusExpositionMatchesSnapshot) {
    EngineConfig cfg = telemetry_config();
    cfg.shards = 2;
    ShardedEngine engine(cfg);
    engine.run(16);
    ASSERT_NE(engine.telemetry(), nullptr);
    const FleetSnapshot& last = engine.telemetry()->latest();
    const std::string text = espread::obs::telemetry::prometheus_text(last);
    EXPECT_NE(text.find("espread_windows_total " +
                        std::to_string(last.totals.windows)),
              std::string::npos);
    EXPECT_NE(text.find("espread_clf_count " +
                        std::to_string(last.clf.total())),
              std::string::npos);
    EXPECT_NE(text.find("espread_governor_windows_total{state=\"normal\"}"),
              std::string::npos);
    EXPECT_NE(text.find("_bucket{le=\"+Inf\"}"), std::string::npos);
    // Every histogram family carries _sum, the exact sum of the recorded
    // values: for clf, the CLF of every window the engine ran.
    const EngineSummary s = engine.summary();
    ASSERT_EQ(last.clf.total(), s.windows);
    std::uint64_t clf_sum = 0;
    for (std::size_t v = 0; v < Histogram::kLinearMax; ++v) {
        clf_sum += v * s.clf_histogram.counts()[v];
    }
    ASSERT_LE(s.clf_max, Histogram::kLinearMax - 1);  // all buckets exact
    EXPECT_EQ(last.clf.sum(), clf_sum);
    EXPECT_NE(text.find("espread_clf_sum " + std::to_string(clf_sum) + "\n"),
              std::string::npos);
    for (const char* signal : {"clf", "loss_run", "bound", "governor_dwell"}) {
        EXPECT_NE(text.find(std::string("espread_") + signal + "_sum "),
                  std::string::npos)
            << signal;
    }
    // Past the exact buckets the sum still counts each value exactly.
    FleetSnapshot hand;
    for (const std::uint64_t v : {3, 40, 1000}) hand.loss_run.record(v);
    EXPECT_NE(espread::obs::telemetry::prometheus_text(hand).find(
                  "espread_loss_run_sum 1043\n"),
              std::string::npos);
}

}  // namespace
