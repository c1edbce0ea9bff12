#include "protocol/playout.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "protocol/session.hpp"

namespace {

using espread::proto::PlayoutClock;
using espread::proto::run_session;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::sim::from_millis;
using espread::sim::from_seconds;

TEST(PlayoutClock, DeadlinesFollowFrameRate) {
    const PlayoutClock clock{24.0, from_seconds(1.0)};
    EXPECT_EQ(clock.deadline(0), from_seconds(1.0));
    EXPECT_EQ(clock.deadline(24), from_seconds(2.0));
    EXPECT_EQ(clock.deadline(12), from_seconds(1.5));
}

TEST(PlayoutClock, OnTimeStrictlyBeforeDeadline) {
    PlayoutClock clock{10.0, from_seconds(1.0)};
    clock.frame_ready(0, from_seconds(0.999));
    clock.frame_ready(1, from_seconds(1.1));  // deadline is 1.1 exactly
    clock.frame_ready(2, from_seconds(1.15));
    EXPECT_TRUE(clock.on_time(0));
    EXPECT_FALSE(clock.on_time(1));  // arriving at the deadline is late
    EXPECT_TRUE(clock.on_time(2));
    EXPECT_FALSE(clock.on_time(3));  // never ready
}

TEST(PlayoutClock, EarliestReadyTimeWins) {
    PlayoutClock clock{10.0, from_seconds(1.0)};
    clock.frame_ready(0, from_seconds(2.0));  // late (retransmission)
    clock.frame_ready(0, from_seconds(0.5));  // earlier original
    EXPECT_TRUE(clock.on_time(0));
    EXPECT_EQ(*clock.slack(0), from_seconds(0.5));
}

TEST(PlayoutClock, SlackReportsMargin) {
    PlayoutClock clock{10.0, from_seconds(1.0)};
    clock.frame_ready(5, from_seconds(1.2));  // deadline 1.5
    ASSERT_TRUE(clock.slack(5).has_value());
    EXPECT_EQ(*clock.slack(5), from_seconds(0.3));
    EXPECT_FALSE(clock.slack(6).has_value());
}

TEST(PlayoutClock, PlaybackMask) {
    PlayoutClock clock{10.0, from_seconds(1.0)};
    clock.frame_ready(0, from_seconds(0.9));
    clock.frame_ready(2, from_seconds(9.0));  // way late
    const auto mask = clock.judge(3).on_time;
    EXPECT_EQ(mask, (espread::LossMask{true, false, false}));
}

TEST(PlayoutClock, RequiredStartupDelayCoversWorstFrame) {
    PlayoutClock clock{10.0, from_seconds(0.1)};
    clock.frame_ready(0, from_seconds(0.5));   // needs startup > 0.5
    clock.frame_ready(10, from_seconds(0.8));  // ideal offset 1.0 -> fine
    const auto required = clock.judge(11).required_startup;
    EXPECT_GT(required, from_seconds(0.5));
    EXPECT_LT(required, from_seconds(0.6));
    // Re-judging with that delay makes both frames on time.
    PlayoutClock retry{10.0, required};
    retry.frame_ready(0, from_seconds(0.5));
    retry.frame_ready(10, from_seconds(0.8));
    EXPECT_TRUE(retry.on_time(0));
    EXPECT_TRUE(retry.on_time(10));
}

TEST(PlayoutClock, InvalidConstruction) {
    EXPECT_THROW(PlayoutClock(0.0, 0), std::invalid_argument);
    EXPECT_THROW(PlayoutClock(24.0, -1), std::invalid_argument);
}

// ---- session integration -------------------------------------------------

SessionConfig lossless_config() {
    SessionConfig cfg;
    cfg.data_loss = {1.0, 0.0};
    cfg.feedback_loss = {1.0, 0.0};
    cfg.num_windows = 12;
    return cfg;
}

TEST(PlayoutSession, LosslessStreamIsFullyOnTime) {
    const SessionResult r = run_session(lossless_config());
    EXPECT_EQ(r.playout_total.unit_losses, 0u);
    EXPECT_EQ(r.playout_total.clf, 0u);
    // The paper's one-window start-up delay suffices with margin.
    EXPECT_LE(r.required_startup, espread::sim::from_seconds(1.0));
    EXPECT_GT(r.required_startup, 0);
}

TEST(PlayoutSession, PlayoutLossesIncludeWindowLosses) {
    SessionConfig cfg;
    cfg.num_windows = 30;
    cfg.seed = 5;
    const SessionResult r = run_session(cfg);
    // A frame late for its slot is an extra unit loss; losses can only grow
    // relative to the window-close accounting.
    EXPECT_GE(r.playout_total.unit_losses, r.total.unit_losses);
    // With the paper's timing parameters nothing arrives late, so the two
    // match exactly.
    EXPECT_EQ(r.playout_total.unit_losses, r.total.unit_losses);
    ASSERT_EQ(r.playout_window_clf.size(), r.windows.size());
    for (std::size_t k = 0; k < r.windows.size(); ++k) {
        EXPECT_EQ(r.playout_window_clf[k], r.windows[k].clf) << "window " << k;
    }
}

TEST(PlayoutSession, ShavedStartupDelayCreatesLateLosses) {
    SessionConfig tight = lossless_config();
    tight.playout_startup_windows = 0.05;  // 50 ms of buffer on 1 s windows
    const SessionResult r = run_session(tight);
    EXPECT_GT(r.playout_total.unit_losses, 0u);
    EXPECT_EQ(r.total.unit_losses, 0u);  // everything DID arrive...
    EXPECT_GT(r.required_startup,
              static_cast<espread::sim::SimTime>(0.05 * 1e9));
}

TEST(PlayoutSession, LargeRttPushesFramesPastTheirSlots) {
    SessionConfig slow = lossless_config();
    slow.playout_startup_windows = 0.2;
    slow.data_link.propagation_delay = espread::sim::from_millis(250);
    const SessionResult fast_net = run_session(lossless_config());
    const SessionResult slow_net = run_session(slow);
    EXPECT_GT(slow_net.required_startup, fast_net.required_startup);
}

TEST(PlayoutSession, InvalidStartupConfigThrows) {
    SessionConfig cfg = lossless_config();
    cfg.playout_startup_windows = 0.0;
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
}

}  // namespace
