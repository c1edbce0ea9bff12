// Adaptation-governor tests (protocol/governor.hpp).
//
// Covers the supervision contract end to end: config validation, the
// window-sequenced ACK admission check, the outlier guard (one ACK can
// move the published bound by at most max_step), the missed-deadline
// watchdog with its Degraded -> Fallback -> Recovering -> Normal ladder,
// exponential-backoff re-arming, and the session-level wiring — including
// the zero-cost-off contract: a disabled governor keeps the session
// byte-identical to the pre-governor pinned baseline.
#include "protocol/governor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "core/estimator.hpp"
#include "obs/trace.hpp"
#include "protocol/report.hpp"
#include "protocol/session.hpp"

namespace {

using espread::BurstEstimator;
using espread::obs::EventType;
using espread::obs::TraceEvent;
using espread::obs::TraceRecorder;
using espread::proto::AckRejectReason;
using espread::proto::AdaptationGovernor;
using espread::proto::GovernorConfig;
using espread::proto::GovernorState;
using espread::proto::run_session;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;

GovernorConfig test_config() {
    GovernorConfig g;
    g.enabled = true;
    g.miss_budget = 2;
    g.max_step = 16;  // window-sized: the guard never engages
    g.hysteresis_windows = 1;
    return g;
}

std::vector<TraceEvent> events_of(const TraceRecorder& rec, EventType type) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : rec.events()) {
        if (e.type == type) out.push_back(e);
    }
    return out;
}

TEST(GovernorConfig, ValidateRejectsBadThresholds) {
    EXPECT_NO_THROW(test_config().validate());
    GovernorConfig g = test_config();
    g.hysteresis_windows = 0;
    EXPECT_THROW(g.validate(), std::invalid_argument);
    g = test_config();
    g.max_step = 0;
    EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(GovernorConfig, SessionValidationEnforcesPrerequisites) {
    SessionConfig cfg;
    cfg.governor = test_config();
    EXPECT_NO_THROW(cfg.validate());

    SessionConfig pinned = cfg;
    pinned.pinned_bound = 3;
    EXPECT_THROW(pinned.validate(), std::invalid_argument);

    SessionConfig nonadaptive = cfg;
    nonadaptive.adaptive = false;
    EXPECT_THROW(nonadaptive.validate(), std::invalid_argument);
}

TEST(Governor, AckAdmissionRejectsDuplicateStaleFuture) {
    BurstEstimator est(16);
    AdaptationGovernor gov(test_config(), est);
    TraceRecorder rec;
    gov.set_trace(&rec);

    gov.on_window_start(0);
    // Nothing has been transmitted past window 0 yet: every window index is
    // implausible (a window's ACK departs only after the next one starts).
    EXPECT_EQ(gov.admit_ack(0, 1), AckRejectReason::kFuture);

    gov.on_window_start(1);
    gov.on_window_start(2);
    EXPECT_EQ(gov.admit_ack(1, 2), std::nullopt);
    EXPECT_EQ(gov.admit_ack(1, 3), AckRejectReason::kDuplicate);
    EXPECT_EQ(gov.admit_ack(0, 4), AckRejectReason::kStale);
    EXPECT_EQ(gov.admit_ack(2, 5), AckRejectReason::kFuture);
    EXPECT_EQ(gov.admit_ack(7, 6), AckRejectReason::kFuture);

    EXPECT_EQ(gov.report().acks_rejected_duplicate, 1u);
    EXPECT_EQ(gov.report().acks_rejected_stale, 1u);
    EXPECT_EQ(gov.report().acks_rejected_future, 3u);
    EXPECT_EQ(gov.report().acks_rejected(), 5u);
    EXPECT_EQ(events_of(rec, EventType::kGovernorAckReject).size(), 5u);

    // After close_stream the final window's own ACK is admissible: it can
    // only arrive once the window-start clock has stopped.
    gov.close_stream();
    EXPECT_EQ(gov.admit_ack(2, 7), std::nullopt);
    EXPECT_EQ(gov.admit_ack(3, 8), AckRejectReason::kFuture);
}

TEST(Governor, OutlierGuardBoundsSingleAckStep) {
    // alpha = 1 (pure tracking) maximizes the estimator's eagerness: without
    // the guard one ACK would jump the bound straight to the observation.
    BurstEstimator est(16, 1.0);
    GovernorConfig cfg = test_config();
    cfg.max_step = 2;
    AdaptationGovernor gov(cfg, est);
    TraceRecorder rec;
    gov.set_trace(&rec);

    gov.on_window_start(0);
    gov.on_window_start(1);

    const std::array<std::size_t, 6> hostile = {16, 0, 16, 16, 0, 12};
    std::size_t window = 2;
    std::size_t published = gov.governed_bound();
    EXPECT_EQ(published, 8u);
    for (std::size_t obs : hostile) {
        ASSERT_EQ(gov.admit_ack(window - 2, window), std::nullopt);
        gov.on_observation(obs);
        const std::size_t next = gov.on_window_start(window++);
        const std::size_t moved =
            next > published ? next - published : published - next;
        EXPECT_LE(moved, cfg.max_step)
            << "observation " << obs << " moved the bound by " << moved;
        published = next;
    }
    // All but the final observation (12, within max_step of bound 10) engage
    // the guard.
    EXPECT_EQ(gov.report().observations_clamped, 5u);
    EXPECT_FALSE(events_of(rec, EventType::kGovernorClamp).empty());
}

TEST(Governor, WatchdogWalksFallbackAndRecovery) {
    BurstEstimator est(16, 0.5);
    AdaptationGovernor gov(test_config(), est);

    // Healthy feedback through window 6: ACK(k-2) arrives during window k-1.
    std::size_t k = 0;
    gov.on_window_start(k++);  // window 0: prior
    gov.on_window_start(k++);  // window 1: no feedback possible yet
    EXPECT_EQ(gov.state(), GovernorState::kNormal);
    for (; k <= 6; ++k) {
        ASSERT_EQ(gov.admit_ack(k - 2, k), std::nullopt);
        gov.on_observation(3);
        gov.on_window_start(k);
        EXPECT_EQ(gov.state(), GovernorState::kNormal) << "window " << k;
    }

    // Total feedback blackout: windows 7..11 start without a fresh ACK.
    gov.on_window_start(7);  // miss 1
    EXPECT_EQ(gov.state(), GovernorState::kDegraded);
    EXPECT_EQ(gov.missed_windows(), 1u);
    gov.on_window_start(8);  // miss 2 == budget
    EXPECT_EQ(gov.state(), GovernorState::kDegraded);
    gov.on_window_start(9);  // miss 3 > budget: hard fallback
    EXPECT_EQ(gov.state(), GovernorState::kFallback);
    EXPECT_EQ(gov.governed_bound(), 8u) << "fallback must pin ceil(n/2)";
    EXPECT_EQ(est.estimate(), 8.0) << "fallback must reset the estimator";
    gov.on_window_start(10);
    gov.on_window_start(11);
    EXPECT_EQ(gov.state(), GovernorState::kFallback);

    // Feedback returns during window 11; staged recovery takes
    // kRecoveryWindows = 4 clean windows before Normal.
    static_assert(GovernorConfig::kRecoveryWindows == 4);
    ASSERT_EQ(gov.admit_ack(10, 100), std::nullopt);
    gov.on_observation(3);
    gov.on_window_start(12);
    EXPECT_EQ(gov.state(), GovernorState::kRecovering);
    for (std::size_t w = 13; w <= 15; ++w) {
        ASSERT_EQ(gov.admit_ack(w - 2, 100 + w), std::nullopt);
        gov.on_observation(3);
        gov.on_window_start(w);
        EXPECT_EQ(gov.state(), GovernorState::kRecovering) << "window " << w;
    }
    ASSERT_EQ(gov.admit_ack(14, 200), std::nullopt);
    gov.on_observation(3);
    gov.on_window_start(16);
    EXPECT_EQ(gov.state(), GovernorState::kNormal);

    EXPECT_EQ(gov.report().fallbacks, 1u);
    EXPECT_EQ(gov.report().recoveries, 1u);
    EXPECT_EQ(gov.report().transitions, 4u);  // N->D->F->R->N
    EXPECT_EQ(gov.report().windows_in_state[0] +
                  gov.report().windows_in_state[1] +
                  gov.report().windows_in_state[2] +
                  gov.report().windows_in_state[3],
              17u);
}

TEST(Governor, OutageMidRecoveryDoublesRearmStreak) {
    BurstEstimator est(16, 0.5);
    GovernorConfig cfg = test_config();
    cfg.miss_budget = 1;
    AdaptationGovernor gov(cfg, est);

    std::size_t w = 1;
    std::uint64_t seq = 0;
    auto ack = [&] {
        ASSERT_EQ(gov.admit_ack(w - 1, ++seq), std::nullopt);
        gov.on_observation(3);
    };
    // Two missed windows (Degraded, then Fallback), then feedback returns:
    // the next window enters Recovering.  From Recovering, the first miss
    // is a flap and doubles the clean streak the next recovery needs.
    auto outage = [&] {
        gov.on_window_start(++w);
        ASSERT_EQ(gov.state(), GovernorState::kDegraded);
        gov.on_window_start(++w);
        ASSERT_EQ(gov.state(), GovernorState::kFallback);
        ack();
        gov.on_window_start(++w);
        ASSERT_EQ(gov.state(), GovernorState::kRecovering);
    };
    // Clean windows until Normal; returns how many Recovering windows ran.
    auto recover = [&] {
        const std::size_t entered = w;
        while (gov.state() == GovernorState::kRecovering) {
            ack();
            gov.on_window_start(++w);
        }
        EXPECT_EQ(gov.state(), GovernorState::kNormal);
        return w - entered;
    };

    gov.on_window_start(0);
    gov.on_window_start(1);
    outage();  // Recovering, needs kRecoveryWindows = 4 clean windows
    outage();  // flap: 4 -> 8
    EXPECT_EQ(recover(), 2 * GovernorConfig::kRecoveryWindows)
        << "one flap must double the streak";

    // Reaching Normal re-arms at kRecoveryWindows; five flaps double it
    // 4 -> 8 -> 16 -> 32 and then hold it at kMaxRearmWindows.
    outage();
    for (int flap = 0; flap < 5; ++flap) outage();
    EXPECT_EQ(recover(), GovernorConfig::kMaxRearmWindows);
    EXPECT_EQ(gov.report().fallbacks, 8u);
    EXPECT_EQ(gov.report().recoveries, 8u);
}

TEST(Governor, HysteresisHoldsPublishedBoundUntilStreak) {
    BurstEstimator est(16, 1.0);  // raw bound == latest observation
    GovernorConfig cfg = test_config();
    cfg.hysteresis_windows = 2;
    AdaptationGovernor gov(cfg, est);

    gov.on_window_start(0);
    gov.on_window_start(1);
    ASSERT_EQ(gov.governed_bound(), 8u);

    // One window at a new raw bound: published must not follow yet.
    ASSERT_EQ(gov.admit_ack(0, 1), std::nullopt);
    gov.on_observation(4);
    EXPECT_EQ(gov.on_window_start(2), 8u);
    // Second consecutive window at the same raw bound: published follows.
    ASSERT_EQ(gov.admit_ack(1, 2), std::nullopt);
    gov.on_observation(4);
    EXPECT_EQ(gov.on_window_start(3), 4u);
}

// --- Session-level wiring -------------------------------------------------

SessionConfig governed_config() {
    SessionConfig cfg;  // paper defaults: Jurassic Park, W=2, Gilbert(.92,.6)
    cfg.num_windows = 26;
    cfg.seed = 1;
    cfg.feedback_loss = {1.0, 0.0};  // lossless ACK path outside the blackout
    cfg.governor = test_config();
    return cfg;
}

TEST(GovernedSession, RidesFeedbackBlackoutThroughFallbackAndRecovery) {
    SessionConfig cfg = governed_config();
    cfg.blackout_feedback_windows(10, 15);  // kills ACKs of windows 10..15
    cfg.collect_metrics = true;
    TraceRecorder rec;
    cfg.trace = &rec;
    const SessionResult r = run_session(cfg);

    // ACK(9) is the last to arrive (during window 10); the first miss is
    // charged at the start of window 12, Fallback lands at window
    // 12 + miss_budget = 14 — within miss_budget + 1 windows of the first
    // missed deadline.  ACK(16) is the first survivor (arrives during
    // window 17), so Recovering starts at 18 and, after the
    // kRecoveryWindows = 4 re-arm streak, Normal returns at 22.
    const auto state_of = [&](std::size_t w) { return r.windows[w].governor_state; };
    for (std::size_t w = 0; w <= 11; ++w) {
        EXPECT_EQ(state_of(w), GovernorState::kNormal) << "window " << w;
    }
    EXPECT_EQ(state_of(12), GovernorState::kDegraded);
    EXPECT_EQ(state_of(13), GovernorState::kDegraded);
    for (std::size_t w = 14; w <= 17; ++w) {
        EXPECT_EQ(state_of(w), GovernorState::kFallback) << "window " << w;
        EXPECT_EQ(r.windows[w].bound_used, 8u)
            << "fallback must run on the prior ceil(n/2) (window " << w << ")";
    }
    for (std::size_t w = 18; w <= 21; ++w) {
        EXPECT_EQ(state_of(w), GovernorState::kRecovering) << "window " << w;
    }
    for (std::size_t w = 22; w < 26; ++w) {
        EXPECT_EQ(state_of(w), GovernorState::kNormal) << "window " << w;
    }

    EXPECT_EQ(r.governor.fallbacks, 1u);
    EXPECT_EQ(r.governor.recoveries, 1u);
    EXPECT_EQ(r.governor.transitions, 4u);
    EXPECT_EQ(r.governor.windows_in_state[0], 16u);
    EXPECT_EQ(r.governor.windows_in_state[1], 2u);
    EXPECT_EQ(r.governor.windows_in_state[2], 4u);
    EXPECT_EQ(r.governor.windows_in_state[3], 4u);

    // Dwell accounting: the ladder visits Normal twice (the initial visit
    // plus the post-recovery return) and every other state once, so the
    // visit counts satisfy sum(state_entries) == transitions + 1.
    EXPECT_EQ(r.governor.state_entries[0], 2u);
    EXPECT_EQ(r.governor.state_entries[1], 1u);
    EXPECT_EQ(r.governor.state_entries[2], 1u);
    EXPECT_EQ(r.governor.state_entries[3], 1u);
    EXPECT_EQ(r.governor.state_entries[0] + r.governor.state_entries[1] +
                  r.governor.state_entries[2] + r.governor.state_entries[3],
              r.governor.transitions + 1);
    // Longest single visit per state: Normal's first stretch (windows
    // 0..11) beats its final one; the others equal their only visit.
    EXPECT_EQ(r.governor.longest_dwell[0], 12u);
    EXPECT_EQ(r.governor.longest_dwell[1], 2u);
    EXPECT_EQ(r.governor.longest_dwell[2], 4u);
    EXPECT_EQ(r.governor.longest_dwell[3], 4u);

    // Every transition is visible as a trace event, in order.
    const std::vector<TraceEvent> ev = events_of(rec, EventType::kGovernorState);
    ASSERT_EQ(ev.size(), 4u);
    const std::array<GovernorState, 4> want = {
        GovernorState::kDegraded, GovernorState::kFallback,
        GovernorState::kRecovering, GovernorState::kNormal};
    const std::array<std::size_t, 4> at = {12, 14, 18, 22};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(static_cast<GovernorState>(ev[i].arg), want[i]);
        EXPECT_EQ(ev[i].window, at[i]);
    }

    // ...and as registry counters.
    EXPECT_EQ(r.metrics.counter("governor_windows_normal"), 16u);
    EXPECT_EQ(r.metrics.counter("governor_windows_degraded"), 2u);
    EXPECT_EQ(r.metrics.counter("governor_windows_fallback"), 4u);
    EXPECT_EQ(r.metrics.counter("governor_windows_recovering"), 4u);
    EXPECT_EQ(r.metrics.counter("governor_fallbacks"), 1u);
    EXPECT_EQ(r.metrics.counter("governor_recoveries"), 1u);
    EXPECT_EQ(r.metrics.counter("governor_transitions"), 4u);
    EXPECT_EQ(r.metrics.counter("governor_entries_normal"), 2u);
    EXPECT_EQ(r.metrics.counter("governor_entries_fallback"), 1u);
    const auto* bounds = r.metrics.find_histogram("governor_bound");
    ASSERT_NE(bounds, nullptr);
    EXPECT_EQ(bounds->total(), 26u);

    // The governed summary names the governor; see the disabled test below
    // for the inverse.
    EXPECT_NE(espread::proto::summarize(r).find("governor"), std::string::npos);
}

TEST(GovernedSession, CleanNetworkStaysNormalAndMatchesUngoverned) {
    // With a window-sized max_step and hysteresis 1 the governor is
    // transparent on a clean network: same bounds as an ungoverned session,
    // all windows Normal, nothing rejected or clamped.
    SessionConfig cfg = governed_config();
    cfg.data_loss = {1.0, 0.0};
    const SessionResult governed = run_session(cfg);

    SessionConfig plain = cfg;
    plain.governor = espread::proto::GovernorConfig{};
    const SessionResult ungoverned = run_session(plain);

    ASSERT_EQ(governed.windows.size(), ungoverned.windows.size());
    for (std::size_t w = 0; w < governed.windows.size(); ++w) {
        EXPECT_EQ(governed.windows[w].bound_used, ungoverned.windows[w].bound_used)
            << "window " << w;
        EXPECT_EQ(governed.windows[w].clf, ungoverned.windows[w].clf);
        EXPECT_EQ(governed.windows[w].governor_state, GovernorState::kNormal);
    }
    EXPECT_EQ(governed.governor.transitions, 0u);
    EXPECT_EQ(governed.governor.acks_rejected(), 0u);
    EXPECT_EQ(governed.governor.observations_clamped, 0u);
}

TEST(GovernedSession, DisabledGovernorIsByteIdenticalToSeedBaseline) {
    // Golden pin of the pre-governor baseline (default config, 20 windows,
    // seed 1, captured from the commit that introduced the governor): the
    // default-disabled governor must not perturb a single window.
    SessionConfig cfg;
    cfg.num_windows = 20;
    cfg.seed = 1;
    cfg.collect_metrics = true;
    const SessionResult r = run_session(cfg);

    const std::array<std::size_t, 20> golden_bound = {8, 8, 6, 5, 5, 5, 5, 3, 3, 3,
                                                      3, 2, 2, 2, 2, 3, 3, 4, 4, 3};
    const std::array<std::size_t, 20> golden_clf = {2, 1, 1, 2, 1, 1, 1, 1, 2, 1,
                                                    1, 1, 1, 2, 2, 2, 1, 1, 1, 1};
    ASSERT_EQ(r.windows.size(), 20u);
    for (std::size_t w = 0; w < 20; ++w) {
        EXPECT_EQ(r.windows[w].bound_used, golden_bound[w]) << "window " << w;
        EXPECT_EQ(r.windows[w].clf, golden_clf[w]) << "window " << w;
        EXPECT_EQ(r.windows[w].governor_state, GovernorState::kNormal);
    }
    EXPECT_EQ(r.acks_sent, 20u);
    EXPECT_EQ(r.acks_applied, 19u);

    // Zero-cost-off: no governor accounting leaks into the report, the
    // registry or the summary when the governor is disabled.
    EXPECT_EQ(r.governor.transitions, 0u);
    EXPECT_EQ(r.governor.windows_in_state[0], 0u);
    for (const auto& [name, value] : r.metrics.counters()) {
        EXPECT_EQ(name.find("governor"), std::string::npos) << name;
        (void)value;
    }
    EXPECT_EQ(r.metrics.find_histogram("governor_bound"), nullptr);
    EXPECT_EQ(r.metrics.find_histogram("governor_state"), nullptr);
    EXPECT_EQ(espread::proto::summarize(r).find("governor"), std::string::npos);
}

}  // namespace
