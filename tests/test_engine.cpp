// Determinism and correctness contract of the multi-session engine.
//
// The ShardedEngine promises byte-identical summaries for any shard
// count, reproducible churn, fresh per-generation RNG streams on slot
// reuse, and a batched hot path that matches the scalar reference
// implementation window for window.  Each of those claims is pinned
// here.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "engine/pool.hpp"
#include "engine/reference.hpp"
#include "net/gilbert.hpp"
#include "obs/histogram.hpp"

namespace {

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::ReferenceTrace;
using espread::engine::run_reference_session;
using espread::engine::SessionPool;
using espread::engine::ShardedEngine;
using espread::engine::summary_json;

EngineConfig churny_config() {
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
    cfg.seed = 2026;
    return cfg;
}

std::string run_to_json(EngineConfig cfg, std::size_t shards,
                        std::size_t windows) {
    cfg.shards = shards;
    ShardedEngine engine(cfg);
    engine.run(windows);
    return summary_json(engine.summary());
}

// The core contract: sharding buys wall-clock only, never different
// numbers.  With churn and feedback loss enabled, the rendered summary
// (scalars and both histograms) must be byte-identical across shard
// counts 1, 2, and 8.
TEST(Engine, ShardCountInvariance) {
    const EngineConfig cfg = churny_config();
    const std::string one = run_to_json(cfg, 1, 64);
    const std::string two = run_to_json(cfg, 2, 64);
    const std::string eight = run_to_json(cfg, 8, 64);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

// Churn itself is a pure function of (seed, session id): two runs of the
// same config agree byte for byte, and the chosen parameters actually
// exercise arrivals and departures.
TEST(Engine, ChurnDeterminism) {
    const EngineConfig cfg = churny_config();
    ShardedEngine a(cfg);
    ShardedEngine b(cfg);
    a.run(96);
    b.run(96);
    const EngineSummary sa = a.summary();
    EXPECT_EQ(summary_json(sa), summary_json(b.summary()));
    EXPECT_GT(sa.sessions_completed, 0u);
    EXPECT_GT(sa.sessions_spawned, sa.sessions_completed);
    EXPECT_GT(sa.idle_windows, 0u);
}

// A single session with churn disabled must reproduce the scalar
// reference implementation exactly: same per-window CLF distribution,
// same bounds, same loss and ACK counts.  This pins every word-level
// trick in the hot path (batched Gilbert runs, the packet-to-LDU table,
// transmission-order run merging, scatter_set_bits, walk_set_runs)
// against the naive loop.  EngineGeometry repeats it over window shapes.
TEST(Engine, PoolOfOneMatchesReference) {
    EngineConfig cfg;
    cfg.sessions = 1;
    cfg.shards = 1;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.feedback_loss = {0.9, 0.5};
    cfg.seed = 77;
    constexpr std::size_t kWindows = 200;

    ShardedEngine engine(cfg);
    engine.run(kWindows);
    const EngineSummary s = engine.summary();

    const ReferenceTrace ref = run_reference_session(cfg, 0, kWindows);
    ASSERT_EQ(ref.window_clf.size(), kWindows);

    EXPECT_EQ(s.windows, kWindows);
    EXPECT_EQ(s.unit_losses, ref.unit_losses);
    EXPECT_EQ(s.acks_delivered, ref.acks_delivered);
    EXPECT_EQ(s.acks_lost, ref.acks_lost);
    EXPECT_EQ(s.clf_max,
              *std::max_element(ref.window_clf.begin(), ref.window_clf.end()));
    for (std::size_t w = 0; w < kWindows; ++w) {
        SCOPED_TRACE(w);
        // Every reference window's CLF and bound must appear in the
        // engine histograms with matching multiplicity.
        // A 24-LDU window keeps both inside the histogram's exact buckets.
        const auto count_in = [&](const std::vector<std::size_t>& xs,
                                  std::size_t v) {
            return static_cast<std::uint64_t>(std::count(xs.begin(), xs.end(), v));
        };
        EXPECT_EQ(s.clf_histogram.counts()[ref.window_clf[w]],
                  count_in(ref.window_clf, ref.window_clf[w]));
        EXPECT_EQ(s.bound_histogram.counts()[ref.window_bound[w]],
                  count_in(ref.window_bound, ref.window_bound[w]));
    }
    const double clf_sum = std::accumulate(
        ref.window_clf.begin(), ref.window_clf.end(), 0.0);
    EXPECT_DOUBLE_EQ(s.clf_mean, clf_sum / static_cast<double>(kWindows));
}

// When a slot is reused after a departure, the new occupant draws from
// the stream keyed by its own session id (generation * capacity + slot),
// not a continuation of the departed session's stream.  With capacity 1
// and zero arrival gap, the pool's totals over three generations must
// equal the sum of three independent reference sessions with ids 0, 1, 2
// whose lifetimes come from the same churn draw the pool uses.
TEST(Engine, SlotReuseYieldsFreshStream) {
    EngineConfig cfg;
    cfg.sessions = 1;
    cfg.shards = 1;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.feedback_loss = {0.9, 0.5};
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 6;
    cfg.churn.mean_lifetime_windows = 14.0;
    cfg.churn.mean_arrival_gap_windows = 0.0;
    cfg.seed = 123;

    std::vector<ReferenceTrace> refs;
    std::size_t total_windows = 0;
    for (std::uint64_t gen = 0; gen < 3; ++gen) {
        const auto [lifetime, gap] = SessionPool::churn_draw(cfg, gen);
        ASSERT_GE(lifetime, cfg.churn.min_lifetime_windows);
        ASSERT_EQ(gap, 0u);  // mean_arrival_gap_windows == 0
        refs.push_back(run_reference_session(cfg, gen, lifetime));
        total_windows += lifetime;
    }

    ShardedEngine engine(cfg);
    engine.run(total_windows);
    const EngineSummary s = engine.summary();

    std::uint64_t losses = 0;
    std::uint64_t acks_ok = 0;
    std::uint64_t acks_lost = 0;
    std::size_t clf_max = 0;
    for (const ReferenceTrace& ref : refs) {
        losses += ref.unit_losses;
        acks_ok += ref.acks_delivered;
        acks_lost += ref.acks_lost;
        clf_max = std::max(clf_max, *std::max_element(ref.window_clf.begin(),
                                                      ref.window_clf.end()));
    }
    EXPECT_EQ(s.windows, total_windows);
    EXPECT_EQ(s.unit_losses, losses);
    EXPECT_EQ(s.acks_delivered, acks_ok);
    EXPECT_EQ(s.acks_lost, acks_lost);
    EXPECT_EQ(s.clf_max, clf_max);
    EXPECT_EQ(s.sessions_completed, 3u);
    EXPECT_EQ(s.sessions_spawned, 4u);  // generation 3 spawned, not yet run
    EXPECT_EQ(s.idle_windows, 0u);

    // Cross-check freshness directly: if the pool had merely continued
    // generation 0's stream instead of reseeding, generation 1's windows
    // would equal windows [l0, l0+l1) of a longer session-0 run.  With
    // this seed they do not.
    const std::uint32_t l0 = SessionPool::churn_draw(cfg, 0).first;
    const std::uint32_t l1 = SessionPool::churn_draw(cfg, 1).first;
    const ReferenceTrace continued = run_reference_session(cfg, 0, l0 + l1);
    const std::vector<std::size_t> continued_tail(
        continued.window_clf.begin() + l0, continued.window_clf.end());
    EXPECT_NE(continued_tail, refs[1].window_clf);
}

// Spreading on vs. off under identical loss: the engine reproduces the
// paper's headline effect (lower mean CLF with the k-CPO permutation)
// and both runs agree on aggregate loss because the channel stream does
// not depend on the spreading decision.
TEST(Engine, SpreadLowersMeanClfUnderSameChannel) {
    EngineConfig cfg;
    cfg.sessions = 64;
    cfg.shards = 2;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.seed = 5;
    cfg.spread = true;
    ShardedEngine spread(cfg);
    cfg.spread = false;
    ShardedEngine inorder(cfg);
    spread.run(128);
    inorder.run(128);
    const EngineSummary ss = spread.summary();
    const EngineSummary si = inorder.summary();
    EXPECT_EQ(ss.unit_losses, si.unit_losses);
    EXPECT_EQ(ss.windows, si.windows);
    EXPECT_LT(ss.clf_mean, si.clf_mean);
}

// Governor-lite supervision is part of the determinism contract too:
// with heavy feedback loss forcing outage excursions, the supervised
// pool must still match the scalar reference window for window — same
// totals, same per-state occupancy, same transition count.
TEST(Engine, GovernedPoolOfOneMatchesReference) {
    EngineConfig cfg;
    cfg.sessions = 1;
    cfg.shards = 1;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.feedback_loss = {0.6, 0.9};  // mostly-lost feedback: misses abound
    cfg.governor.enabled = true;
    cfg.seed = 31;
    constexpr std::size_t kWindows = 300;

    ShardedEngine engine(cfg);
    engine.run(kWindows);
    const EngineSummary s = engine.summary();
    const ReferenceTrace ref = run_reference_session(cfg, 0, kWindows);
    ASSERT_EQ(ref.window_state.size(), kWindows);

    EXPECT_EQ(s.windows, kWindows);
    EXPECT_EQ(s.unit_losses, ref.unit_losses);
    EXPECT_EQ(s.acks_delivered, ref.acks_delivered);
    EXPECT_EQ(s.acks_lost, ref.acks_lost);
    EXPECT_EQ(s.governor_transitions, ref.governor_transitions);
    std::uint64_t occupancy[4] = {0, 0, 0, 0};
    for (const std::uint8_t st : ref.window_state) ++occupancy[st];
    for (std::size_t st = 0; st < 4; ++st) {
        SCOPED_TRACE(st);
        EXPECT_EQ(s.governor_windows[st], occupancy[st]);
    }
    // The chosen parameters actually exercise the whole ladder.
    EXPECT_GT(s.governor_transitions, 0u);
    EXPECT_GT(s.governor_windows[1] + s.governor_windows[2], 0u);
    // Per-window bounds agree with the supervised reference loop.
    for (std::size_t w = 0; w < kWindows; ++w) {
        SCOPED_TRACE(w);
        EXPECT_EQ(s.bound_histogram.counts()[ref.window_bound[w]],
                  static_cast<std::uint64_t>(
                      std::count(ref.window_bound.begin(),
                                 ref.window_bound.end(), ref.window_bound[w])));
    }
}

// Shard invariance holds with supervision enabled: governor state lives
// per slot, so cutting the slot axis differently cannot change it.
TEST(Engine, GovernedShardCountInvariance) {
    EngineConfig cfg = churny_config();
    cfg.governor.enabled = true;
    const std::string one = run_to_json(cfg, 1, 64);
    EXPECT_EQ(one, run_to_json(cfg, 2, 64));
    EXPECT_EQ(one, run_to_json(cfg, 8, 64));
    // And supervision is not a no-op relative to the unsupervised run.
    EngineConfig off = churny_config();
    EXPECT_NE(one, run_to_json(off, 1, 64));
}

// Shard invariance holds with the FEC-lite coded arm enabled: the repair
// draws ride each slot's own Gilbert chain, so cutting the slot axis
// differently cannot change the summaries (ISSUE 8 acceptance: coded
// fleet summaries byte-identical across shards 1, 2, and 8).
TEST(Engine, CodedShardCountInvariance) {
    EngineConfig cfg = churny_config();
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 5;
    const std::string one = run_to_json(cfg, 1, 64);
    EXPECT_EQ(one, run_to_json(cfg, 2, 64));
    EXPECT_EQ(one, run_to_json(cfg, 8, 64));
    // And the coded arm is not a no-op relative to the uncoded run.
    EngineConfig off = churny_config();
    EXPECT_NE(one, run_to_json(off, 1, 64));
}

// The coded pool-of-one matches the scalar reference window for window:
// repair survival draws, the all-or-nothing recovery decision, and the
// untouched transmission-order feedback all line up.
TEST(Engine, CodedPoolOfOneMatchesReference) {
    EngineConfig cfg;
    cfg.sessions = 1;
    cfg.shards = 1;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.feedback_loss = {0.9, 0.5};
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 4;
    cfg.seed = 123;
    constexpr std::size_t kWindows = 200;

    ShardedEngine engine(cfg);
    engine.run(kWindows);
    const EngineSummary s = engine.summary();

    const ReferenceTrace ref = run_reference_session(cfg, 0, kWindows);
    EXPECT_EQ(s.windows, kWindows);
    EXPECT_EQ(s.unit_losses, ref.unit_losses);
    EXPECT_EQ(s.acks_delivered, ref.acks_delivered);
    EXPECT_EQ(s.acks_lost, ref.acks_lost);
    EXPECT_EQ(s.fec_repair_packets, ref.fec_repair_packets);
    EXPECT_EQ(s.fec_windows_recovered, ref.fec_windows_recovered);
    EXPECT_EQ(s.clf_max,
              *std::max_element(ref.window_clf.begin(), ref.window_clf.end()));
    // The arm must actually fire in both directions on this channel.
    EXPECT_GT(s.fec_windows_recovered, 0u);
    EXPECT_GT(s.fec_windows_unrecovered, 0u);
    const double clf_sum = std::accumulate(
        ref.window_clf.begin(), ref.window_clf.end(), 0.0);
    EXPECT_DOUBLE_EQ(s.clf_mean, clf_sum / static_cast<double>(kWindows));
}

// Shard invariance holds with the NACK-lite receiver-driven arm on top of
// FEC-lite: banking, the piggybacked NACK draw, and the watchdog are all
// per-slot state, so cutting the slot axis differently cannot change the
// summaries.
TEST(Engine, NackShardCountInvariance) {
    EngineConfig cfg = churny_config();
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 5;
    cfg.fec.nack = true;
    const std::string one = run_to_json(cfg, 1, 64);
    EXPECT_EQ(one, run_to_json(cfg, 2, 64));
    EXPECT_EQ(one, run_to_json(cfg, 8, 64));
    // And receiver-driven banking is not a no-op relative to the fixed
    // proactive schedule.
    EngineConfig fixed = cfg;
    fixed.fec.nack = false;
    EXPECT_NE(one, run_to_json(fixed, 1, 64));
}

// The NACK-lite arm reacts to loss and degrades gracefully: on a lossy
// feedback path some requests die, and when feedback is fully dead the
// watchdog reverts every slot to the fixed proactive schedule after the
// grace windows — banked credits stop leaking and repairs keep flowing.
TEST(Engine, NackArmReactsAndDegradesGracefully) {
    EngineConfig cfg;
    cfg.sessions = 16;
    cfg.shards = 2;
    cfg.feedback_loss = {0.9, 0.5};
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 4;
    cfg.fec.nack = true;
    cfg.seed = 7;
    constexpr std::size_t kWindows = 200;

    ShardedEngine live(cfg);
    live.run(kWindows);
    const EngineSummary s = live.summary();
    EXPECT_TRUE(s.nack);
    EXPECT_GT(s.nack_requests_sent, 0u);
    EXPECT_GT(s.nack_requests_lost, 0u);
    EXPECT_GT(s.nack_repair_packets, 0u);
    // Banking never spends more than the fixed schedule accrues.
    EXPECT_LE(s.nack_repair_packets, s.fec_repair_packets + 1);

    EngineConfig dead = cfg;
    dead.feedback_loss = {0.92, 0.6, 1.0, 1.0};  // every feedback lost
    ShardedEngine blackout(dead);
    blackout.run(kWindows);
    const EngineSummary b = blackout.summary();
    EXPECT_EQ(b.nack_requests_lost, b.nack_requests_sent);
    EXPECT_GT(b.nack_windows_proactive, 0u);
    // Dead feedback degrades to (nearly) the full fixed schedule: only
    // the pre-watchdog grace windows withhold repairs.
    EXPECT_GT(b.fec_repair_packets, 0u);
}

// With the NACK-lite arm off, a coded summary carries no nack_* keys and
// the fec-only numbers are untouched by the arm's presence in the build.
TEST(Engine, NackOffLeaksNothingIntoCodedSummaries) {
    EngineConfig cfg = churny_config();
    cfg.fec.enabled = true;
    const std::string json = run_to_json(cfg, 1, 64);
    EXPECT_EQ(json.find("nack_"), std::string::npos);
}

// ---- Window geometry ----
//
// The tests above all run n = 24, f = 2: one loss word and a power-of-two
// packet count per LDU.  These repeat the reference and shard-invariance
// contracts over odd f, exactly one word, a word plus one bit and three
// words, and over a near-absorbing bad state (p_bad = 0.995) at n = 130
// whose bursts fill whole words and run across word boundaries.

struct Geometry {
    std::size_t n;
    std::size_t f;
    double p_bad;
};

void PrintTo(const Geometry& g, std::ostream* os) {
    *os << "n" << g.n << "_f" << g.f << "_pbad" << g.p_bad;
}

class EngineGeometry : public ::testing::TestWithParam<Geometry> {
protected:
    /// A governed, spreading pool-of-one on this geometry.
    static EngineConfig single(std::uint64_t seed) {
        const Geometry g = GetParam();
        EngineConfig cfg;
        cfg.sessions = 1;
        cfg.shards = 1;
        cfg.window_ldus = g.n;
        cfg.packets_per_ldu = g.f;
        cfg.data_loss = {0.92, g.p_bad};
        cfg.feedback_loss = {0.9, 0.5};
        cfg.governor.enabled = true;
        cfg.seed = seed;
        return cfg;
    }
};

std::uint64_t bucket_count(const std::vector<std::size_t>& xs, std::size_t v) {
    using espread::obs::Histogram;
    return static_cast<std::uint64_t>(
        std::count_if(xs.begin(), xs.end(), [v](std::size_t x) {
            return Histogram::bucket_for(x) == Histogram::bucket_for(v);
        }));
}

/// Pool totals and histograms against a reference trace of equal length.
void expect_matches_reference(const EngineSummary& s,
                              const ReferenceTrace& ref) {
    const std::size_t windows = ref.window_clf.size();
    ASSERT_EQ(s.windows, windows);
    EXPECT_EQ(s.unit_losses, ref.unit_losses);
    EXPECT_EQ(s.acks_delivered, ref.acks_delivered);
    EXPECT_EQ(s.acks_lost, ref.acks_lost);
    EXPECT_EQ(s.governor_transitions, ref.governor_transitions);
    EXPECT_EQ(s.clf_max,
              *std::max_element(ref.window_clf.begin(), ref.window_clf.end()));
    EXPECT_EQ(s.clf_histogram.sum(),
              std::accumulate(ref.window_clf.begin(), ref.window_clf.end(),
                              std::uint64_t{0}));
    EXPECT_EQ(s.bound_histogram.sum(),
              std::accumulate(ref.window_bound.begin(), ref.window_bound.end(),
                              std::uint64_t{0}));
    for (std::size_t w = 0; w < windows; ++w) {
        SCOPED_TRACE(w);
        using espread::obs::Histogram;
        const std::size_t clf = ref.window_clf[w];
        const std::size_t bound = ref.window_bound[w];
        EXPECT_EQ(s.clf_histogram.counts()[Histogram::bucket_for(clf)],
                  bucket_count(ref.window_clf, clf));
        EXPECT_EQ(s.bound_histogram.counts()[Histogram::bucket_for(bound)],
                  bucket_count(ref.window_bound, bound));
    }
}

TEST_P(EngineGeometry, PoolOfOneMatchesReference) {
    const EngineConfig cfg = single(77);
    constexpr std::size_t kWindows = 200;
    ShardedEngine engine(cfg);
    engine.run(kWindows);
    const EngineSummary s = engine.summary();
    expect_matches_reference(s, run_reference_session(cfg, 0, kWindows));
    EXPECT_GT(s.unit_losses, 0u);
}

TEST_P(EngineGeometry, CodedPoolOfOneMatchesReference) {
    EngineConfig cfg = single(123);
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 4;
    constexpr std::size_t kWindows = 200;
    ShardedEngine engine(cfg);
    engine.run(kWindows);
    const EngineSummary s = engine.summary();
    const ReferenceTrace ref = run_reference_session(cfg, 0, kWindows);
    expect_matches_reference(s, ref);
    EXPECT_EQ(s.fec_repair_packets, ref.fec_repair_packets);
    EXPECT_EQ(s.fec_windows_recovered, ref.fec_windows_recovered);
}

// Every arm on at once — spread, governor, FEC and NACK, with churn —
// and still byte-identical for any shard count.
TEST_P(EngineGeometry, ShardCountInvariance) {
    EngineConfig cfg = churny_config();
    const Geometry g = GetParam();
    cfg.window_ldus = g.n;
    cfg.packets_per_ldu = g.f;
    cfg.data_loss = {0.92, g.p_bad};
    cfg.governor.enabled = true;
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 5;
    cfg.fec.nack = true;
    const std::string one = run_to_json(cfg, 1, 48);
    EXPECT_EQ(one, run_to_json(cfg, 2, 48));
    EXPECT_EQ(one, run_to_json(cfg, 3, 48));
}

INSTANTIATE_TEST_SUITE_P(Shapes, EngineGeometry,
                         ::testing::Values(Geometry{24, 2, 0.6},
                                           Geometry{7, 3, 0.6},
                                           Geometry{64, 1, 0.6},
                                           Geometry{65, 3, 0.6},
                                           Geometry{130, 2, 0.6},
                                           Geometry{130, 2, 0.995}));

// The NACK-lite pool-of-one matches the scalar reference window for
// window: credit banking and expiry, the NACK piggybacked on the
// window's feedback draw, released repairs and the lost-feedback
// watchdog's fall back to the fixed schedule.  The second config adds
// governor-lite on top, as engine_fleet runs it.
TEST(Engine, NackPoolOfOneMatchesReference) {
    for (const bool governed : {false, true}) {
        SCOPED_TRACE(governed);
        EngineConfig cfg;
        cfg.sessions = 1;
        cfg.shards = 1;
        cfg.feedback_loss = {0.9, 0.5};
        cfg.governor.enabled = governed;
        cfg.fec.enabled = true;
        cfg.fec.overhead_num = 1;
        cfg.fec.overhead_den = 10;
        cfg.fec.nack = true;
        cfg.seed = 29;
        constexpr std::size_t kWindows = 400;
        ShardedEngine engine(cfg);
        engine.run(kWindows);
        const EngineSummary s = engine.summary();
        const ReferenceTrace ref = run_reference_session(cfg, 0, kWindows);
        expect_matches_reference(s, ref);
        EXPECT_EQ(s.fec_repair_packets, ref.fec_repair_packets);
        EXPECT_EQ(s.fec_windows_recovered, ref.fec_windows_recovered);
        EXPECT_EQ(s.nack_requests_sent, ref.nack_requests_sent);
        EXPECT_EQ(s.nack_requests_lost, ref.nack_requests_lost);
        EXPECT_EQ(s.nack_repair_packets, ref.nack_repair_packets);
        EXPECT_EQ(s.nack_credits_expired, ref.nack_credits_expired);
        EXPECT_EQ(s.nack_windows_proactive, ref.nack_windows_proactive);
        // Every branch of the arm fires on this channel.
        EXPECT_GT(s.nack_requests_lost, 0u);
        EXPECT_GT(s.nack_repair_packets, 0u);
        EXPECT_GT(s.nack_credits_expired, 0u);
        EXPECT_GT(s.nack_windows_proactive, 0u);
        EXPECT_GT(s.fec_windows_recovered, 0u);
        if (governed) {
            EXPECT_GT(s.governor_transitions, 0u);
        }
    }
}

// ---- Sampled Gilbert CLF ----
//
// The engine is the library's Monte-Carlo sampler of window CLF under the
// Gilbert chain (test_markov checks its in-order arm against the exact
// DP).  These pin its basic properties at one packet per LDU.

EngineConfig gilbert_sampler(espread::net::GilbertParams params, bool spread) {
    EngineConfig cfg;
    cfg.sessions = 8;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 1;
    cfg.spread = spread;
    cfg.data_loss = params;
    cfg.seed = 3;
    return cfg;
}

TEST(GilbertClf, LosslessChannelGivesZeroClf) {
    ShardedEngine engine(gilbert_sampler({1.0, 0.0}, false));
    engine.run(50);
    const EngineSummary s = engine.summary();
    EXPECT_EQ(s.windows, 400u);
    EXPECT_DOUBLE_EQ(s.clf_mean, 0.0);
    EXPECT_DOUBLE_EQ(s.alf, 0.0);
}

TEST(GilbertClf, AlfTracksStationaryLoss) {
    const espread::net::GilbertParams params{0.92, 0.6};
    ShardedEngine engine(gilbert_sampler(params, false));
    engine.run(625);  // 5000 windows
    EXPECT_NEAR(engine.summary().alf,
                espread::net::GilbertLoss::stationary_loss(params), 0.01);
}

TEST(GilbertClf, SpreadingBeatsIdentityUnderBurstyLoss) {
    const espread::net::GilbertParams params{0.92, 0.6};
    ShardedEngine id(gilbert_sampler(params, false));
    ShardedEngine spread(gilbert_sampler(params, true));
    id.run(375);  // 3000 windows each
    spread.run(375);
    const EngineSummary a = id.summary();
    const EngineSummary b = spread.summary();
    EXPECT_LT(b.clf_mean, a.clf_mean);
    // Same seeds, same chains: the order moves losses, it never adds any.
    EXPECT_EQ(b.unit_losses, a.unit_losses);
}

// Config validation rejects out-of-range parameters before any arena is
// built.
TEST(Engine, ValidatesConfig) {
    EngineConfig cfg;
    cfg.sessions = 0;
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    cfg = EngineConfig{};
    cfg.alpha = 1.5;
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    cfg = EngineConfig{};
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 0;
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    cfg = EngineConfig{};
    cfg.data_loss.p_good = 1.25;
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    cfg = EngineConfig{};
    cfg.fec.enabled = true;
    cfg.fec.overhead_den = 0;
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    cfg = EngineConfig{};
    cfg.fec.nack = true;  // requires the fec arm
    EXPECT_THROW(ShardedEngine{cfg}, std::invalid_argument);
    // Churn means that would make the geometric draws spin forever
    // (p = 1/(1 + mean) = 0) or overflow the uint32 clamp.  validate()
    // is called directly so a regression fails here instead of hanging
    // in the pool constructor.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {inf, -inf, std::nan(""), 4294967296.0}) {
        SCOPED_TRACE(bad);
        cfg = EngineConfig{};
        cfg.churn.enabled = true;
        cfg.churn.mean_lifetime_windows = bad;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
        cfg = EngineConfig{};
        cfg.churn.enabled = true;
        cfg.churn.mean_arrival_gap_windows = bad;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    cfg = EngineConfig{};
    cfg.churn.enabled = true;
    cfg.churn.mean_lifetime_windows = 4294967295.0;  // the largest accepted
    EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
