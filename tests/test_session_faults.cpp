// Property tests for full sessions under fault injection: 64-seed sweeps
// per impairment mix.  Whatever the network does — reordering, duplication,
// corruption through the wire codec, jitter, ACK and data blackouts — a
// session must terminate, keep its conservation laws
// (now the impaired reconciliation delivered + dropped + corrupt_rejected
// == sent + duplicated), never double-count an LDU, respect the pigeonhole
// lower bound on CLF, and stay a pure function of (config, seed) — which
// the Monte-Carlo thread-identity test pins down to byte-equal metric
// registries for 1 thread vs 4.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "net/fault.hpp"
#include "protocol/session.hpp"

namespace {

using espread::exp::MonteCarloRunner;
using espread::exp::RunnerOptions;
using espread::exp::TrialSummary;
using espread::proto::run_session;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;

RunnerOptions runner_opts(std::size_t trials, std::size_t threads) {
    RunnerOptions o;
    o.trials = trials;
    o.threads = threads;
    return o;
}
using espread::proto::StreamKind;

/// Minimum possible max-consecutive-loss when `lost` of `n` slots are lost:
/// the losses pigeonhole into the n - lost + 1 gaps around the survivors.
std::size_t lower_bound_clf(std::size_t n, std::size_t lost) {
    if (lost == 0) return 0;
    if (lost >= n) return n;
    const std::size_t gaps = n - lost + 1;
    return (lost + gaps - 1) / gaps;
}

/// Fast-running session template (MJPEG avoids the MPEG trace generator).
SessionConfig base_config(std::uint64_t seed) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 16;
    cfg.stream.frame_rate = 30.0;
    cfg.stream.mjpeg_mean_bits = 16000.0;
    cfg.num_windows = 8;
    cfg.seed = seed;
    return cfg;
}

enum class Mix { kReorder, kDuplicate, kCorrupt, kJitter, kKitchenSink };

const char* mix_name(Mix m) {
    switch (m) {
        case Mix::kReorder: return "reorder";
        case Mix::kDuplicate: return "duplicate";
        case Mix::kCorrupt: return "corrupt";
        case Mix::kJitter: return "jitter";
        case Mix::kKitchenSink: return "kitchen-sink";
    }
    return "?";
}

SessionConfig mixed_config(Mix mix, std::uint64_t seed) {
    SessionConfig cfg = base_config(seed);
    switch (mix) {
        case Mix::kReorder:
            cfg.data_impairment.reorder_rate = 0.3;
            break;
        case Mix::kDuplicate:
            cfg.data_impairment.duplicate_rate = 0.3;
            cfg.feedback_impairment.duplicate_rate = 0.3;
            break;
        case Mix::kCorrupt:
            cfg.data_impairment.corrupt_rate = 0.3;
            cfg.feedback_impairment.corrupt_rate = 0.3;
            break;
        case Mix::kJitter:
            cfg.data_impairment.jitter_rate = 0.5;
            cfg.data_impairment.jitter_max = espread::sim::from_millis(8.0);
            break;
        case Mix::kKitchenSink:
            cfg.data_impairment.reorder_rate = 0.2;
            cfg.data_impairment.duplicate_rate = 0.15;
            cfg.data_impairment.corrupt_rate = 0.15;
            cfg.data_impairment.jitter_rate = 0.3;
            // A scripted data outage inside window 2 (1067–1600 ms).
            cfg.data_impairment.blackouts.push_back(
                {espread::sim::from_millis(1200), espread::sim::from_millis(1400)});
            cfg.feedback_impairment.corrupt_rate = 0.2;
            cfg.blackout_feedback_windows(3, 5);  // kill the ACK path
            break;
    }
    return cfg;
}

void check_invariants(const SessionConfig& cfg, const SessionResult& r) {
    const std::size_t n = cfg.window_ldus();
    ASSERT_EQ(r.windows.size(), cfg.num_windows);
    EXPECT_EQ(r.total.slots, cfg.num_windows * n);
    EXPECT_EQ(r.playout_window_clf.size(), cfg.num_windows);

    // Impaired reconciliation on both channels.
    const auto& d = r.data_channel;
    EXPECT_EQ(d.delivered + d.dropped + d.corrupt_rejected,
              d.sent + d.duplicated);
    EXPECT_LE(d.forced_dropped, d.dropped);
    const auto& f = r.feedback_channel;
    EXPECT_EQ(f.delivered + f.dropped + f.corrupt_rejected,
              f.sent + f.duplicated);

    // One ACK per window no matter how hostile the network was.
    EXPECT_EQ(r.acks_sent, cfg.num_windows);
    EXPECT_LE(r.acks_applied, r.acks_sent);

    for (std::size_t k = 0; k < r.windows.size(); ++k) {
        const auto& w = r.windows[k];
        EXPECT_LE(w.clf, n);
        EXPECT_LE(w.lost_ldus, n);
        EXPECT_LE(w.clf, w.lost_ldus);
        // No double counting: a duplicated-and-delivered frame must never
        // make losses negative or CLF exceed the pigeonhole band.
        EXPECT_GE(w.clf, lower_bound_clf(n, w.lost_ldus));
        EXPECT_GE(w.bound_used, 1u);
        EXPECT_LE(r.playout_window_clf[k], n);
    }
}

class FaultSweep : public ::testing::TestWithParam<Mix> {};

TEST_P(FaultSweep, SixtyFourSeedsSurviveEveryMix) {
    const Mix mix = GetParam();
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const SessionConfig cfg = mixed_config(mix, seed);
        const SessionResult r = run_session(cfg);
        check_invariants(cfg, r);
        if (HasFailure()) {
            FAIL() << "mix=" << mix_name(mix) << " seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Mixes, FaultSweep,
                         ::testing::Values(Mix::kReorder, Mix::kDuplicate,
                                           Mix::kCorrupt, Mix::kJitter,
                                           Mix::kKitchenSink),
                         [](const auto& name_info) {
                             std::string out;
                             for (const char c :
                                  std::string(mix_name(name_info.param))) {
                                 if (c != '-') out.push_back(c);
                             }
                             return out;
                         });

TEST(SessionFaults, ImpairedRunsAreDeterministicPerSeed) {
    for (std::uint64_t seed : {3u, 17u, 41u}) {
        const SessionConfig cfg = mixed_config(Mix::kKitchenSink, seed);
        const SessionResult a = run_session(cfg);
        const SessionResult b = run_session(cfg);
        ASSERT_EQ(a.windows.size(), b.windows.size());
        for (std::size_t k = 0; k < a.windows.size(); ++k) {
            ASSERT_EQ(a.windows[k].clf, b.windows[k].clf);
            ASSERT_EQ(a.windows[k].lost_ldus, b.windows[k].lost_ldus);
            ASSERT_EQ(a.windows[k].retransmissions, b.windows[k].retransmissions);
        }
        ASSERT_EQ(a.data_channel.duplicated, b.data_channel.duplicated);
        ASSERT_EQ(a.data_channel.corrupt_rejected,
                  b.data_channel.corrupt_rejected);
        ASSERT_EQ(a.data_channel.reordered, b.data_channel.reordered);
    }
}

TEST(SessionFaults, AckBlackoutStallsAdaptationButNotTheStream) {
    SessionConfig cfg = base_config(5);
    cfg.blackout_feedback_windows(3, 5);
    const SessionResult r = run_session(cfg);
    check_invariants(cfg, r);
    // Exactly the ACKs of windows 3-5 are scripted drops on the feedback
    // path (the feedback channel carries nothing else).
    EXPECT_EQ(r.feedback_channel.forced_dropped, 3u);
    EXPECT_LE(r.acks_applied, r.acks_sent - 3);
}

TEST(SessionFaults, ImpairmentCountersSurfaceInMetrics) {
    SessionConfig cfg = mixed_config(Mix::kKitchenSink, 9);
    cfg.collect_metrics = true;
    const SessionResult r = run_session(cfg);
    const auto& m = r.metrics;
    EXPECT_EQ(m.counter("data_packets_duplicated"), r.data_channel.duplicated);
    EXPECT_EQ(m.counter("data_packets_corrupt_rejected"),
              r.data_channel.corrupt_rejected);
    EXPECT_EQ(m.counter("data_packets_reordered"), r.data_channel.reordered);
    EXPECT_EQ(m.counter("data_packets_forced_dropped"),
              r.data_channel.forced_dropped);
    EXPECT_GT(r.data_channel.forced_dropped, 0u);  // the data blackout
    EXPECT_GT(m.counter("data_packets_duplicated") +
                  m.counter("data_packets_corrupt_rejected") +
                  m.counter("data_packets_reordered"),
              0u);

    // Zero-cost-off: an unimpaired session's registry must NOT grow the
    // impairment keys (byte-identity of pre-fault metric output).
    SessionConfig clean = base_config(9);
    clean.collect_metrics = true;
    const SessionResult rc = run_session(clean);
    for (const auto& [name, value] : rc.metrics.counters()) {
        (void)value;
        EXPECT_NE(name, "data_packets_duplicated");
        EXPECT_NE(name, "recv_duplicates_dropped");
    }
    EXPECT_FALSE(rc.metrics.counters().empty());
}

/// Registries compare equal key-by-key, bucket-by-bucket — the
/// "byte-identical" criterion without going through a file.
void expect_registries_identical(const espread::obs::MetricsRegistry& a,
                                 const espread::obs::MetricsRegistry& b) {
    EXPECT_EQ(a.counters(), b.counters());
    const auto ha = a.histograms();
    const auto hb = b.histograms();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].first, hb[i].first);
        EXPECT_EQ(*ha[i].second, *hb[i].second);
    }
}

TEST(SessionFaults, MonteCarloMetricsByteIdenticalAcrossThreadCounts) {
    SessionConfig cfg = mixed_config(Mix::kKitchenSink, 123);
    cfg.collect_metrics = true;
    cfg.num_windows = 6;

    const MonteCarloRunner one{runner_opts(/*trials=*/12, /*threads=*/1)};
    const MonteCarloRunner four{runner_opts(/*trials=*/12, /*threads=*/4)};
    const TrialSummary s1 = one.run(cfg);
    const TrialSummary s4 = four.run(cfg);

    EXPECT_EQ(s1.window_clf.count(), s4.window_clf.count());
    EXPECT_EQ(s1.window_clf.mean(), s4.window_clf.mean());
    EXPECT_EQ(s1.window_clf.deviation(), s4.window_clf.deviation());
    EXPECT_EQ(s1.alf.mean(), s4.alf.mean());
    EXPECT_EQ(s1.clf_histogram, s4.clf_histogram);
    expect_registries_identical(s1.metrics, s4.metrics);
}

// ---- Governed sessions under fault injection ------------------------------

/// ACK blackout + header corruption on both channels with the adaptation
/// governor supervising the estimator: the mix that exercises every
/// admission branch (lost feedback deadlines, corrupted-but-plausible ACK
/// windows) at once.
SessionConfig governed_mixed_config(std::uint64_t seed) {
    SessionConfig cfg = base_config(seed);
    cfg.data_impairment.corrupt_rate = 0.2;
    cfg.feedback_impairment.corrupt_rate = 0.2;
    cfg.blackout_feedback_windows(3, 5);
    cfg.governor.enabled = true;
    cfg.governor.miss_budget = 1;  // short sessions must still reach Fallback
    cfg.governor.recovery_windows = 2;
    return cfg;
}

void check_governor_invariants(const SessionConfig& cfg,
                               const SessionResult& r) {
    // Time-in-state accounting must cover every window exactly once, and
    // the per-window states must agree with the aggregate counters.
    std::size_t per_window[4] = {0, 0, 0, 0};
    for (const auto& w : r.windows) {
        ASSERT_LT(static_cast<std::size_t>(w.governor_state), 4u);
        ++per_window[static_cast<std::size_t>(w.governor_state)];
    }
    std::size_t total = 0;
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(r.governor.windows_in_state[s], per_window[s]) << "state " << s;
        total += r.governor.windows_in_state[s];
    }
    EXPECT_EQ(total, cfg.num_windows);
    EXPECT_GE(r.governor.recoveries + 1, r.governor.fallbacks)
        << "every fallback but possibly the last must have recovered";
    // Rejected ACKs never reach the estimator, so they are bounded by what
    // the feedback channel delivered minus what the session applied.
    EXPECT_LE(r.governor.acks_rejected() + r.acks_applied,
              r.feedback_channel.delivered);
}

TEST(GovernedSessionFaults, SixtyFourSeedsSurviveBlackoutPlusCorruption) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const SessionConfig cfg = governed_mixed_config(seed);
        const SessionResult r = run_session(cfg);
        check_invariants(cfg, r);
        check_governor_invariants(cfg, r);
        // The 3-window ACK blackout exceeds miss budget 1 on every seed.
        EXPECT_GE(r.governor.fallbacks, 1u) << "seed " << seed;
        if (HasFailure()) {
            FAIL() << "governed seed=" << seed;
        }
    }
}

TEST(GovernedSessionFaults, MetricsByteIdenticalAcrossThreadCounts) {
    SessionConfig cfg = governed_mixed_config(123);
    cfg.collect_metrics = true;

    const MonteCarloRunner one{runner_opts(/*trials=*/12, /*threads=*/1)};
    const MonteCarloRunner four{runner_opts(/*trials=*/12, /*threads=*/4)};
    const TrialSummary s1 = one.run(cfg);
    const TrialSummary s4 = four.run(cfg);

    EXPECT_EQ(s1.window_clf.count(), s4.window_clf.count());
    EXPECT_EQ(s1.window_clf.mean(), s4.window_clf.mean());
    EXPECT_EQ(s1.clf_histogram, s4.clf_histogram);
    expect_registries_identical(s1.metrics, s4.metrics);
    // The governed registry actually carries the governor keys (the merge
    // is exercised on them, not on an empty set).
    EXPECT_GT(s1.metrics.counter("governor_fallbacks"), 0u);
    EXPECT_NE(s1.metrics.find_histogram("governor_state"), nullptr);
}

// ---- FEC-coded sessions under fault injection -----------------------------

/// Kitchen-sink impairments on top of the hybrid spread-then-code arm: the
/// repair stream shares the data path's loss process and corruption, so
/// mutated repair records must die at the codec seal, never in the decoder.
SessionConfig rlc_mixed_config(std::uint64_t seed) {
    SessionConfig cfg = mixed_config(Mix::kKitchenSink, seed);
    cfg.scheme = espread::proto::Scheme::kHybridSpreadRlc;
    cfg.rlc.window_packets = 24;
    cfg.rlc.overhead_num = 1;
    cfg.rlc.overhead_den = 8;
    return cfg;
}

TEST(RlcSessionFaults, SixtyFourSeedsSurviveTheKitchenSinkCoded) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SessionConfig cfg = rlc_mixed_config(seed);
        cfg.collect_metrics = true;
        const SessionResult r = run_session(cfg);
        check_invariants(cfg, r);
        // Repair accounting closes: every emitted repair either survived
        // the channel or is counted lost, and recoveries never exceed the
        // losses the decoder could have covered.
        const auto& m = r.metrics;
        EXPECT_LE(m.counter("rlc_repairs_lost"), m.counter("rlc_repairs_sent"));
        EXPECT_LE(m.counter("rlc_packets_recovered"),
                  r.data_channel.dropped);
        if (HasFailure()) {
            FAIL() << "rlc seed=" << seed;
        }
    }
}

TEST(RlcSessionFaults, MetricsByteIdenticalAcrossThreadCounts) {
    SessionConfig cfg = rlc_mixed_config(123);
    cfg.collect_metrics = true;

    const MonteCarloRunner one{runner_opts(/*trials=*/12, /*threads=*/1)};
    const MonteCarloRunner four{runner_opts(/*trials=*/12, /*threads=*/4)};
    const TrialSummary s1 = one.run(cfg);
    const TrialSummary s4 = four.run(cfg);

    EXPECT_EQ(s1.window_clf.count(), s4.window_clf.count());
    EXPECT_EQ(s1.window_clf.mean(), s4.window_clf.mean());
    EXPECT_EQ(s1.clf_histogram, s4.clf_histogram);
    expect_registries_identical(s1.metrics, s4.metrics);
    // The coded registry actually carries the RLC keys (the merge is
    // exercised on them, not on an empty set).
    EXPECT_GT(s1.metrics.counter("rlc_repairs_sent"), 0u);
    EXPECT_GT(s1.metrics.counter("rlc_repair_bits_sent"), 0u);
}

// ---- Receiver-driven recovery under fault injection -----------------------

/// Kitchen-sink impairments on the NACK-driven repair plane: NACKs share
/// the feedback path's corruption and blackout, retransmissions and
/// repairs share the data path's, and forged-but-decodable records must
/// die at the admission checks, never in the decoder or transmit log.
SessionConfig nack_mixed_config(std::uint64_t seed, bool governed) {
    SessionConfig cfg = rlc_mixed_config(seed);
    cfg.recovery.enabled = true;
    cfg.governor.enabled = governed;
    return cfg;
}

void check_nack_invariants(const SessionConfig& cfg, const SessionResult& r) {
    check_invariants(cfg, r);
    const auto& m = r.metrics;
    // Retry cap: dead or hostile feedback can never produce a NACK storm.
    EXPECT_LE(m.counter("nack_requests_sent"),
              cfg.num_windows *
                  (espread::proto::RecoveryConfig::kMaxRetries + 1));
    // The funnel only narrows: serviced <= admitted <= received <= sent
    // (corruption and blackout eat requests, duplication is deduped).
    EXPECT_LE(m.counter("nack_requests_serviced"),
              m.counter("recovery_nacks_admitted"));
    EXPECT_LE(m.counter("recovery_nacks_admitted"),
              m.counter("nack_requests_received"));
    // Every window ran in exactly one recovery mode.
    EXPECT_EQ(m.counter("recovery_windows_reactive") +
                  m.counter("recovery_windows_suspended") +
                  m.counter("recovery_windows_proactive"),
              cfg.num_windows);
    // Side-band accounting closes against the channel's own ledger.
    EXPECT_EQ(m.counter("data_sideband_sent"), r.data_channel.sideband_sent);
    EXPECT_LE(r.data_channel.sideband_sent, r.data_channel.sent);
}

TEST(NackSessionFaults, SixtyFourSeedsSurviveTheKitchenSink) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SessionConfig cfg = nack_mixed_config(seed, /*governed=*/false);
        cfg.collect_metrics = true;
        const SessionResult r = run_session(cfg);
        check_nack_invariants(cfg, r);
        if (HasFailure()) {
            FAIL() << "nack seed=" << seed;
        }
    }
}

TEST(NackSessionFaults, GovernedSixtyFourSeedsSurviveTheKitchenSink) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SessionConfig cfg = nack_mixed_config(seed, /*governed=*/true);
        cfg.collect_metrics = true;
        const SessionResult r = run_session(cfg);
        check_nack_invariants(cfg, r);
        if (HasFailure()) {
            FAIL() << "governed nack seed=" << seed;
        }
    }
}

TEST(NackSessionFaults, MetricsByteIdenticalAcrossThreadCounts) {
    SessionConfig cfg = nack_mixed_config(123, /*governed=*/true);
    cfg.collect_metrics = true;

    const MonteCarloRunner one{runner_opts(/*trials=*/12, /*threads=*/1)};
    const MonteCarloRunner four{runner_opts(/*trials=*/12, /*threads=*/4)};
    const TrialSummary s1 = one.run(cfg);
    const TrialSummary s4 = four.run(cfg);

    EXPECT_EQ(s1.window_clf.count(), s4.window_clf.count());
    EXPECT_EQ(s1.window_clf.mean(), s4.window_clf.mean());
    EXPECT_EQ(s1.clf_histogram, s4.clf_histogram);
    expect_registries_identical(s1.metrics, s4.metrics);
    // The merged registry actually carries recovery-plane keys, so the
    // identity is exercised on them.
    EXPECT_GT(s1.metrics.counter("nack_requests_sent"), 0u);
    EXPECT_GT(s1.metrics.counter("recovery_windows_reactive"), 0u);
}

}  // namespace
