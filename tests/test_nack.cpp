// Receiver-authoritative recovery plane tests (protocol/recovery.hpp,
// DESIGN.md §13).
//
// Covers the control plane end to end: RecoveryConfig validation, the
// RepairScheduler state machine driven directly (governor gating, the
// feedback watchdog with its two-window grace, admission dedupe, EDF
// shedding under queue overload, expired-job dropping), and the
// session-level wiring — NACKs flowing on lossy channels, trace events,
// graceful degradation under full feedback blackout with the retry-cap
// bound, determinism, the zero-cost-off contract (with the plane disabled
// a hybrid session reproduces its pinned goldens and registers no
// recovery-plane key), and the client decoder's resync after a data
// outage longer than the coding window.
#include "protocol/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/session.hpp"
#include "protocol/wire.hpp"

namespace {

using espread::obs::EventType;
using espread::obs::TraceEvent;
using espread::obs::TraceRecorder;
using espread::proto::GovernorState;
using espread::proto::NackRequest;
using espread::proto::RecoveryConfig;
using espread::proto::RecoveryMode;
using espread::proto::RepairJob;
using espread::proto::RepairScheduler;
using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::StreamKind;

SessionConfig hybrid_config(std::uint64_t seed) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 16;
    cfg.stream.frame_rate = 24.0;
    cfg.num_windows = 12;
    cfg.scheme = Scheme::kHybridSpreadRlc;
    cfg.rlc.window_packets = 64;
    cfg.rlc.overhead_num = 1;
    cfg.rlc.overhead_den = 10;
    cfg.collect_metrics = true;
    cfg.seed = seed;
    return cfg;
}

SessionConfig impaired_config(std::uint64_t seed) {
    SessionConfig cfg = hybrid_config(seed);
    cfg.governor.enabled = true;
    cfg.data_impairment.reorder_rate = 0.05;
    cfg.data_impairment.duplicate_rate = 0.03;
    cfg.data_impairment.corrupt_rate = 0.03;
    cfg.feedback_impairment.corrupt_rate = 0.05;
    cfg.blackout_feedback_windows(4, 6);
    return cfg;
}

std::size_t count_events(const TraceRecorder& rec, EventType type) {
    std::size_t n = 0;
    for (const TraceEvent& e : rec.events()) {
        if (e.type == type) ++n;
    }
    return n;
}

// ---------------------------------------------------------------------------
// Config validation.

TEST(RecoveryConfigTest, ValidateRejectsBadValues) {
    SessionConfig base = hybrid_config(1);
    base.recovery.enabled = true;
    base.stream.ldus_per_window = NackRequest::kMaxFrames;
    EXPECT_NO_THROW(base.validate());

    // Frames past the NACK bitmap could never be named in a request.
    SessionConfig cfg = base;
    cfg.stream.ldus_per_window = NackRequest::kMaxFrames + 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    // Without the recovery plane the window size is unconstrained.
    cfg.recovery.enabled = false;
    EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// RepairScheduler state machine, driven directly.

RecoveryConfig sched_config() {
    RecoveryConfig r;
    r.enabled = true;
    return r;
}

TEST(RepairSchedulerTest, GovernorStateGatesServicing) {
    RepairScheduler s(sched_config(), 32);

    EXPECT_EQ(s.on_window_start(0, GovernorState::kNormal),
              RecoveryMode::kReactive);
    EXPECT_TRUE(s.may_service_now());
    // Normal servicing is unlimited within the window.
    s.note_serviced();
    s.note_serviced();
    EXPECT_TRUE(s.may_service_now());

    EXPECT_EQ(s.on_window_start(1, GovernorState::kDegraded),
              RecoveryMode::kSuspended);
    EXPECT_FALSE(s.may_service_now());
    EXPECT_EQ(s.on_window_start(2, GovernorState::kFallback),
              RecoveryMode::kSuspended);
    EXPECT_FALSE(s.may_service_now());

    // Recovering is slew-limited: exactly one job per window.
    EXPECT_EQ(s.on_window_start(3, GovernorState::kRecovering),
              RecoveryMode::kReactive);
    EXPECT_TRUE(s.may_service_now());
    s.note_serviced();
    EXPECT_FALSE(s.may_service_now());

    const auto& rep = s.report();
    EXPECT_EQ(rep.windows_reactive, 2u);
    EXPECT_EQ(rep.windows_suspended, 2u);
    EXPECT_EQ(rep.windows_proactive, 0u);
}

TEST(RepairSchedulerTest, WatchdogFlipsToProactiveAndBack) {
    RepairScheduler s(sched_config(), 32);

    // Windows 0 and 1 are grace: the first ACK cannot have arrived yet.
    EXPECT_EQ(s.on_window_start(0, std::nullopt), RecoveryMode::kReactive);
    EXPECT_EQ(s.on_window_start(1, std::nullopt), RecoveryMode::kReactive);
    // Silence through the grace plus kWatchdogWindows = 2 more windows.
    EXPECT_EQ(s.on_window_start(2, std::nullopt), RecoveryMode::kReactive);
    EXPECT_EQ(s.on_window_start(3, std::nullopt), RecoveryMode::kProactive);
    EXPECT_FALSE(s.may_service_now());
    EXPECT_EQ(s.report().watchdog_timeouts, 1u);

    // Staying silent does not re-count the flip.
    EXPECT_EQ(s.on_window_start(4, std::nullopt), RecoveryMode::kProactive);
    EXPECT_EQ(s.report().watchdog_timeouts, 1u);

    // Any feedback arrival resumes reactive service immediately.
    s.on_feedback_alive();
    EXPECT_EQ(s.mode(), RecoveryMode::kReactive);
    EXPECT_TRUE(s.may_service_now());
    EXPECT_EQ(s.on_window_start(5, std::nullopt), RecoveryMode::kReactive);
}

TEST(RepairSchedulerTest, AdmitRejectsForgedExpiredAndDuplicate) {
    RepairScheduler s(sched_config(), 8);

    NackRequest n;
    n.seq = 1;
    n.window = 9;  // beyond num_windows: forged or corrupt
    EXPECT_FALSE(s.admit(n, 100, 10).has_value());
    EXPECT_EQ(s.report().nacks_invalid, 1u);

    n.window = 3;
    EXPECT_FALSE(s.admit(n, 10, 10).has_value());  // deadline passed
    EXPECT_EQ(s.report().jobs_expired, 1u);

    const auto job = s.admit(n, 100, 10);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->window, 3u);
    EXPECT_EQ(s.report().nacks_admitted, 1u);

    // The duplicated retry round must not trigger double servicing; a
    // later round for the same window must.
    EXPECT_FALSE(s.admit(n, 100, 10).has_value());
    EXPECT_EQ(s.report().nacks_duplicate, 1u);
    n.retry = 1;
    EXPECT_TRUE(s.admit(n, 100, 10).has_value());
}

TEST(RepairSchedulerTest, QueueShedsEarliestDeadlineUnderOverload) {
    RepairScheduler s(sched_config(), 8);
    static_assert(RecoveryConfig::kQueueLimit == 16);

    const auto push = [&s](std::uint64_t seq, espread::sim::SimTime deadline) {
        RepairJob j;
        j.seq = seq;
        j.window = static_cast<std::size_t>(seq % 8);
        j.deadline = deadline;
        return s.enqueue(j);
    };
    // Fill the queue: seq 1 at 50, seq 2 at 70, seqs 3..16 at 90..220.
    EXPECT_FALSE(push(1, 50).has_value());
    EXPECT_FALSE(push(2, 70).has_value());
    for (std::uint64_t seq = 3; seq <= 16; ++seq) {
        EXPECT_FALSE(
            push(seq, static_cast<espread::sim::SimTime>(90 + 10 * (seq - 3)))
                .has_value());
    }
    EXPECT_EQ(s.queued(), 16u);

    // Overflow evicts the earliest deadline — the least salvageable job.
    const auto shed = push(17, 80);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->seq, 1u);
    EXPECT_EQ(s.queued(), 16u);
    EXPECT_EQ(s.report().jobs_shed, 1u);

    // An incoming job that is itself the earliest bounces straight back.
    const auto bounced = push(18, 10);
    ASSERT_TRUE(bounced.has_value());
    EXPECT_EQ(bounced->seq, 18u);

    // Draining releases jobs deadline-first and drops expired ones.
    s.on_window_start(0, GovernorState::kNormal);
    const auto first = s.next_job(75);  // 70 has expired by now
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->seq, 17u);
    EXPECT_EQ(s.report().jobs_expired, 1u);
    for (std::uint64_t seq = 3; seq <= 16; ++seq) {
        const auto next = s.next_job(75);
        ASSERT_TRUE(next.has_value());
        EXPECT_EQ(next->seq, seq);
    }
    EXPECT_FALSE(s.next_job(75).has_value());
}

// ---------------------------------------------------------------------------
// Session wiring.

TEST(RecoverySessionTest, NacksFlowAndRepairsAreServed) {
    SessionConfig cfg = hybrid_config(21);
    cfg.data_loss = {0.9, 0.45};  // bursty enough that every run loses packets
    cfg.recovery.enabled = true;
    cfg.retransmit_critical = false;
    TraceRecorder rec;
    cfg.trace = &rec;

    const SessionResult r = run_session(cfg);
    EXPECT_GT(r.metrics.counter("nack_requests_sent"), 0u);
    EXPECT_GT(r.metrics.counter("nack_requests_serviced"), 0u);
    EXPECT_GT(r.metrics.counter("nack_repairs_sent"), 0u);
    EXPECT_EQ(r.metrics.counter("nack_retx_packets"), 0u);  // retx disabled
    EXPECT_GT(count_events(rec, EventType::kNackSent), 0u);
    EXPECT_GT(count_events(rec, EventType::kNackServed), 0u);

    // Every serviced request was admitted, and admission never exceeds
    // what the client sent.
    EXPECT_LE(r.metrics.counter("nack_requests_serviced"),
              r.metrics.counter("recovery_nacks_admitted"));
    EXPECT_LE(r.metrics.counter("recovery_nacks_admitted"),
              r.metrics.counter("nack_requests_sent"));
}

TEST(RecoverySessionTest, RetransmissionsRideTheSideband) {
    SessionConfig cfg = hybrid_config(22);
    cfg.data_loss = {0.9, 0.45};
    cfg.recovery.enabled = true;
    cfg.retransmit_critical = true;

    const SessionResult r = run_session(cfg);
    EXPECT_GT(r.metrics.counter("nack_retx_packets"), 0u);
    // Side-band sends cover both RLC repairs and NACK retransmissions and
    // reconcile with the channel's own ledger.
    EXPECT_EQ(r.metrics.counter("data_sideband_sent"),
              r.data_channel.sideband_sent);
    EXPECT_GE(r.data_channel.sideband_sent,
              r.metrics.counter("nack_retx_packets"));
}

TEST(RecoverySessionTest, BlackoutDegradesToProactiveWithBoundedNacks) {
    SessionConfig cfg = hybrid_config(23);
    cfg.data_loss = {0.9, 0.45};
    cfg.recovery.enabled = true;
    cfg.retransmit_critical = false;
    cfg.blackout_feedback_windows(0, cfg.num_windows - 1);
    TraceRecorder rec;
    cfg.trace = &rec;

    const SessionResult r = run_session(cfg);
    // Retry cap: at most (kMaxRetries + 1) NACK rounds per window, dead
    // feedback or not — no retry storm.
    EXPECT_LE(r.metrics.counter("nack_requests_sent"),
              cfg.num_windows * (RecoveryConfig::kMaxRetries + 1));
    // The watchdog flipped the plane to the fixed proactive schedule.
    EXPECT_GE(r.metrics.counter("recovery_watchdog_timeouts"), 1u);
    EXPECT_GT(r.metrics.counter("recovery_windows_proactive"), 0u);
    EXPECT_GE(count_events(rec, EventType::kRepairTimeout), 1u);
    // Nothing was serviced (no NACK ever arrived), yet repairs still
    // flowed via the proactive credit schedule.
    EXPECT_EQ(r.metrics.counter("nack_requests_serviced"), 0u);
    EXPECT_GT(r.metrics.counter("rlc_repairs_sent"), 0u);
}

TEST(RecoverySessionTest, GovernedBlackoutSuspendsServicing) {
    SessionConfig cfg = impaired_config(24);
    cfg.data_loss = {0.9, 0.45};
    cfg.recovery.enabled = true;

    const SessionResult r = run_session(cfg);
    // The mid-stream feedback blackout drives the governor out of Normal,
    // which must suspend repair servicing for those windows.
    EXPECT_GT(r.metrics.counter("recovery_windows_suspended"), 0u);
    EXPECT_GT(r.metrics.counter("governor_windows_degraded") +
                  r.metrics.counter("governor_windows_fallback"),
              0u);
}

TEST(RecoverySessionTest, DeterministicAcrossReruns) {
    SessionConfig cfg = impaired_config(25);
    cfg.recovery.enabled = true;

    const SessionResult a = run_session(cfg);
    const SessionResult b = run_session(cfg);
    EXPECT_EQ(a.playout_window_clf, b.playout_window_clf);
    EXPECT_EQ(a.data_channel.sent, b.data_channel.sent);
    EXPECT_EQ(a.data_channel.bits_sent, b.data_channel.bits_sent);
    EXPECT_EQ(a.feedback_channel.sent, b.feedback_channel.sent);
    EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
}

// ---------------------------------------------------------------------------
// Zero-cost-off: with the plane disabled, hybrid sessions reproduce their
// goldens bit for bit and carry no recovery-plane key.

std::uint64_t metrics_fingerprint(const espread::obs::MetricsRegistry& m) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const auto& [name, value] : m.counters()) {
        for (const char c : name) mix(static_cast<std::uint64_t>(c));
        mix(value);
    }
    return h;
}

struct Golden {
    std::uint64_t seed;
    std::size_t clf_sum;
    std::size_t pclf_sum;
    std::size_t data_sent;
    std::size_t data_delivered;
    std::uint64_t data_bits;
    std::size_t feedback_sent;
    std::uint64_t fingerprint;
    bool impaired;
};

TEST(RecoverySessionTest, DisabledPlaneMatchesGoldens) {
    // The hybrid RLC config and its governed + impaired variant.  Every
    // column but the metrics fingerprint dates from the pre-recovery tree;
    // the fingerprint moved twice: when the client-side decoder replaced
    // the sender-side survival oracle (rlc_* counters and the
    // rlc_forged_rejected key), and, for the governed rows, when the
    // governor_longest_dwell_* counters left the registry.
    const std::array<Golden, 6> goldens = {{
        {11ull, 22, 22, 424, 338, 5172459, 12, 0x89ffe929b9159608ull, false},
        {11ull, 25, 25, 424, 337, 5172459, 12, 0xd235a2784a602e17ull, true},
        {12ull, 12, 12, 426, 381, 5230822, 12, 0x0193242ce6a457c2ull, false},
        {12ull, 18, 18, 426, 383, 5230822, 12, 0x90db7ffcb30c4c8cull, true},
        {13ull, 32, 32, 428, 327, 5215053, 12, 0xf1a544b5d5ceaa06ull, false},
        {13ull, 33, 33, 428, 323, 5215053, 12, 0x9a57a8e9da64b7acull, true},
    }};
    for (const Golden& g : goldens) {
        const SessionConfig cfg =
            g.impaired ? impaired_config(g.seed) : hybrid_config(g.seed);
        ASSERT_FALSE(cfg.recovery.enabled);
        const SessionResult r = run_session(cfg);
        std::size_t clf_sum = 0, pclf_sum = 0;
        for (const auto& w : r.windows) clf_sum += w.clf;
        for (const std::size_t c : r.playout_window_clf) pclf_sum += c;
        EXPECT_EQ(clf_sum, g.clf_sum) << "seed " << g.seed;
        EXPECT_EQ(pclf_sum, g.pclf_sum) << "seed " << g.seed;
        EXPECT_EQ(r.data_channel.sent, g.data_sent) << "seed " << g.seed;
        EXPECT_EQ(r.data_channel.delivered, g.data_delivered)
            << "seed " << g.seed;
        EXPECT_EQ(r.data_channel.bits_sent, g.data_bits) << "seed " << g.seed;
        EXPECT_EQ(r.feedback_channel.sent, g.feedback_sent)
            << "seed " << g.seed;
        EXPECT_EQ(metrics_fingerprint(r.metrics), g.fingerprint)
            << "seed " << g.seed;
        // No recovery-plane key may leak into a disabled-plane registry.
        for (const auto& [name, value] : r.metrics.counters()) {
            (void)value;
            EXPECT_TRUE(name.rfind("nack_", 0) != 0 &&
                        name.rfind("recovery_", 0) != 0 &&
                        name.rfind("data_sideband", 0) != 0)
                << "leaked key " << name;
        }
    }
}

// ---------------------------------------------------------------------------
// Client decoder resync: a data outage longer than the coding window must
// not strand the decoder.  The first packets after the gap name indices
// far past the last one witnessed; they are genuine (the link carried
// nothing the client saw), so the plausibility gate must admit them and
// the decoder must declare the gap lost and keep decoding.

TEST(RecoverySessionTest, ClientDecoderResyncsAfterLongDataOutage) {
    for (const bool recovery : {false, true}) {
        SessionConfig cfg = hybrid_config(5);
        cfg.num_windows = 20;
        cfg.rlc = {16, 2, 10};
        cfg.retransmit_critical = false;
        cfg.recovery.enabled = recovery;
        // Black out the data transmissions of windows 3..6.
        const espread::sim::SimTime T = cfg.window_duration();
        cfg.data_impairment.blackouts.push_back({3 * T, 7 * T});

        const SessionResult r = run_session(cfg);
        const auto& m = r.metrics;
        // No impairment: every coordinate on the wire is genuine.
        EXPECT_EQ(std::ranges::count_if(m.counters(),
                                        [](const auto& c) {
                                            return c.first == "rlc_forged_rejected";
                                        }),
                  1)
            << "recovery=" << recovery;
        EXPECT_EQ(m.counter("rlc_forged_rejected"), 0u)
            << "recovery=" << recovery;
        // Source packets = everything on the data path but side-band
        // traffic and the per-window trailers.  The blackout kills 4 of 20
        // windows and the Gilbert channel a sixth of the rest, so a live
        // decoder gains rank from well over half of them; a stranded one
        // stops at the outage.
        const std::size_t sources = r.data_channel.sent -
                                    r.data_channel.sideband_sent -
                                    cfg.num_windows;
        EXPECT_GE(2 * m.counter("rlc_rank"), sources)
            << "recovery=" << recovery;
    }
}

}  // namespace
