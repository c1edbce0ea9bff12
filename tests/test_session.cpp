#include "protocol/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "media/trace.hpp"
#include "media/trace_io.hpp"
#include "protocol/report.hpp"

namespace {

using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::StreamKind;

SessionConfig base_config() {
    SessionConfig cfg;  // paper defaults: Jurassic Park, W=2, 1.2 Mb/s, Gilbert(.92,.6)
    cfg.num_windows = 20;
    cfg.seed = 1;
    return cfg;
}

SessionConfig lossless(SessionConfig cfg) {
    cfg.data_loss = {1.0, 0.0};
    cfg.feedback_loss = {1.0, 0.0};
    return cfg;
}

TEST(Session, LosslessDeliveryIsPerfect) {
    const SessionResult r = run_session(lossless(base_config()));
    ASSERT_EQ(r.windows.size(), 20u);
    for (const auto& w : r.windows) {
        EXPECT_EQ(w.clf, 0u) << "window " << w.window;
        EXPECT_EQ(w.lost_ldus, 0u);
        EXPECT_EQ(w.sender_dropped, 0u);
        EXPECT_EQ(w.retransmissions, 0u);
        EXPECT_EQ(w.actual_packet_burst, 0u);
    }
    EXPECT_EQ(r.total.unit_losses, 0u);
    EXPECT_EQ(r.total.slots, 20u * 24u);
    EXPECT_EQ(r.acks_sent, 20u);
    EXPECT_EQ(r.acks_applied, 20u);
    EXPECT_EQ(r.data_channel.dropped, 0u);
}

TEST(Session, DeterministicPerSeed) {
    const SessionResult a = run_session(base_config());
    const SessionResult b = run_session(base_config());
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].clf, b.windows[i].clf);
        EXPECT_EQ(a.windows[i].lost_ldus, b.windows[i].lost_ldus);
        EXPECT_EQ(a.windows[i].bound_used, b.windows[i].bound_used);
    }
    SessionConfig other = base_config();
    other.seed = 2;
    const SessionResult c = run_session(other);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        any_diff = any_diff || a.windows[i].lost_ldus != c.windows[i].lost_ldus;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Session, LossyNetworkActuallyLosesPackets) {
    const SessionResult r = run_session(base_config());
    EXPECT_GT(r.data_channel.dropped, 0u);
    // Stationary loss of Gilbert(.92,.6) is ~16.7%; expect the ballpark.
    const double rate = static_cast<double>(r.data_channel.dropped) /
                        static_cast<double>(r.data_channel.sent);
    EXPECT_GT(rate, 0.08);
    EXPECT_LT(rate, 0.30);
}

TEST(Session, AdaptiveBoundMovesFromInitialGuess) {
    const SessionResult r = run_session(base_config());
    // Initial bound = noncritical size / 2 = 8; with mild frame-level
    // bursts the estimate must leave 8 within a few windows.
    EXPECT_EQ(r.windows[0].bound_used, 8u);
    bool moved = false;
    for (const auto& w : r.windows) moved = moved || w.bound_used != 8;
    EXPECT_TRUE(moved);
}

TEST(Session, PinnedBoundFreezesAdaptation) {
    SessionConfig cfg = base_config();
    cfg.pinned_bound = 3;
    const SessionResult r = run_session(cfg);
    for (const auto& w : r.windows) EXPECT_EQ(w.bound_used, 3u);
}

// No applied ACK keeps the prior bound: with every ACK lost on the
// feedback path, the estimator never leaves its no-feedback prior (n/2 of
// the 16-frame non-critical layer).
TEST(Session, NonAdaptiveKeepsInitialBound) {
    SessionConfig cfg = base_config();
    cfg.feedback_loss = {0.92, 0.6, 1.0, 1.0};
    const SessionResult r = run_session(cfg);
    EXPECT_GT(r.acks_sent, 0u);
    EXPECT_EQ(r.acks_applied, 0u);
    for (const auto& w : r.windows) EXPECT_EQ(w.bound_used, 8u);
}

TEST(Session, RetransmissionsProtectAnchors) {
    SessionConfig with = base_config();
    SessionConfig without = base_config();
    without.retransmit_critical = false;
    const SessionResult r_with = run_session(with);
    const SessionResult r_without = run_session(without);
    std::size_t retx = 0;
    for (const auto& w : r_with.windows) retx += w.retransmissions;
    EXPECT_GT(retx, 0u);
    // Undecodable frames (dependents of lost anchors) should drop when
    // anchors are protected.
    std::size_t undec_with = 0;
    std::size_t undec_without = 0;
    for (const auto& w : r_with.windows) undec_with += w.undecodable;
    for (const auto& w : r_without.windows) undec_without += w.undecodable;
    EXPECT_LT(undec_with, undec_without);
    EXPECT_LE(r_with.total.unit_losses * 10,
              r_without.total.unit_losses * 13);  // no catastrophic regression
}

TEST(Session, SpreadBeatsInOrderOnMeanClf) {
    // The paper's headline (Fig. 8): scrambling reduces mean per-window CLF
    // under bursty loss.  Compare across a few seeds to avoid flukes.
    double spread_total = 0.0;
    double inorder_total = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SessionConfig spread = base_config();
        spread.seed = seed;
        SessionConfig inorder = spread;
        inorder.scheme = Scheme::kInOrder;
        spread_total += run_session(spread).clf_stats().mean();
        inorder_total += run_session(inorder).clf_stats().mean();
    }
    EXPECT_LT(spread_total, inorder_total);
}

TEST(Session, StarvedLinkDropsTailLayersFirst) {
    SessionConfig cfg = lossless(base_config());
    cfg.data_link.bandwidth_bps = 6e5;  // ~half the trace's mean bitrate
    cfg.num_windows = 10;
    const SessionResult r = run_session(cfg);
    std::size_t dropped = 0;
    for (const auto& w : r.windows) dropped += w.sender_dropped;
    EXPECT_GT(dropped, 0u);
    // Layered scheme sheds B frames; anchors (and thus decodability of what
    // remains) survive, so CLF stays bounded by the B-run structure.
    EXPECT_GT(r.total.unit_losses, 0u);
}

TEST(Session, MjpegStreamRuns) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 30;
    cfg.stream.frame_rate = 30.0;
    cfg.stream.mjpeg_mean_bits = 20000.0;
    cfg.num_windows = 10;
    const SessionResult r = run_session(cfg);
    EXPECT_EQ(r.total.slots, 300u);
    for (const auto& w : r.windows) EXPECT_EQ(w.undecodable, 0u);
}

TEST(Session, AudioStreamRuns) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kAudio;
    cfg.stream.ldus_per_window = 30;
    cfg.stream.frame_rate = 30.0;
    cfg.num_windows = 10;
    const SessionResult r = run_session(cfg);
    EXPECT_EQ(r.total.slots, 300u);
    // Audio LDUs are tiny; an audio window easily fits the link.
    for (const auto& w : r.windows) EXPECT_EQ(w.sender_dropped, 0u);
}

TEST(Session, TraceFileDrivenSession) {
    // Write a synthetic clip to disk, then stream it back through the
    // trace-file path; the trace is shorter than the session, exercising
    // the looping logic.
    const std::string path = ::testing::TempDir() + "/espread_session_trace.txt";
    espread::media::TraceGenerator gen{
        espread::media::movie_stats("Terminator"), 13};
    espread::media::write_trace_file(path, gen.generate(6));

    SessionConfig cfg = lossless(base_config());
    cfg.stream.kind = StreamKind::kTraceFile;
    cfg.stream.trace_path = path;
    cfg.stream.frame_rate = 24.0;
    cfg.num_windows = 8;  // 16 GOPs needed > 6 available -> loops
    const SessionResult r = run_session(cfg);
    EXPECT_EQ(r.total.slots, 8u * 24u);
    EXPECT_EQ(r.total.unit_losses, 0u);
}

TEST(Session, TraceFileIsReadOnlyAtConstruction) {
    // Every per-window site uses the window duration computed at
    // construction, so deleting the file before run() changes nothing.
    const std::string path =
        ::testing::TempDir() + "/espread_session_trace_deleted.txt";
    espread::media::TraceGenerator gen{
        espread::media::movie_stats("Terminator"), 17};
    espread::media::write_trace_file(path, gen.generate(6));

    SessionConfig cfg = base_config();  // lossy, so repairs are scheduled
    cfg.stream.kind = StreamKind::kTraceFile;
    cfg.stream.trace_path = path;
    cfg.stream.frame_rate = 24.0;
    cfg.num_windows = 8;
    cfg.drop_policy = espread::proto::DropPolicy::kPredictive;
    cfg.recovery.enabled = true;
    const SessionResult with_file = run_session(cfg);

    espread::proto::Session session{cfg};
    ASSERT_EQ(std::remove(path.c_str()), 0);
    const SessionResult without_file = session.run();
    EXPECT_EQ(espread::proto::summarize(with_file),
              espread::proto::summarize(without_file));
    EXPECT_EQ(with_file.playout_window_clf, without_file.playout_window_clf);
    EXPECT_EQ(with_file.data_channel.sent, without_file.data_channel.sent);
}

TEST(Session, TraceFileConfigValidation) {
    SessionConfig cfg = base_config();
    cfg.stream.kind = StreamKind::kTraceFile;
    cfg.stream.trace_path = "";
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
    cfg.stream.trace_path = "/nonexistent/trace.txt";
    EXPECT_THROW(run_session(cfg), std::runtime_error);
}

TEST(Session, PredictiveDropShedsUpFrontOnStarvedLink) {
    SessionConfig reactive = lossless(base_config());
    reactive.data_link.bandwidth_bps = 6e5;  // below the trace's mean rate
    reactive.num_windows = 10;
    SessionConfig predictive = reactive;
    predictive.drop_policy = espread::proto::DropPolicy::kPredictive;

    const SessionResult r_re = run_session(reactive);
    const SessionResult r_pre = run_session(predictive);
    std::size_t drops_re = 0;
    std::size_t drops_pre = 0;
    for (const auto& w : r_re.windows) drops_re += w.sender_dropped;
    for (const auto& w : r_pre.windows) drops_pre += w.sender_dropped;
    EXPECT_GT(drops_re, 0u);
    EXPECT_GT(drops_pre, 0u);
    // Predictive shedding (with its reserve) drops at least as much but
    // never overruns the deadline mid-anchor.
    EXPECT_GE(drops_pre, drops_re);
    // Both still deliver a playable stream.
    EXPECT_LT(r_pre.total.alf, 1.0);
}

TEST(Session, PredictiveDropIsNoOpWithAmpleBandwidth) {
    SessionConfig cfg = lossless(base_config());
    cfg.drop_policy = espread::proto::DropPolicy::kPredictive;
    cfg.num_windows = 10;
    const SessionResult r = run_session(cfg);
    for (const auto& w : r.windows) EXPECT_EQ(w.sender_dropped, 0u);
    EXPECT_EQ(r.total.unit_losses, 0u);
}

TEST(Session, PredictiveConfigValidation) {
    SessionConfig cfg = base_config();
    cfg.drop_policy = espread::proto::DropPolicy::kPredictive;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Session, GilbertElliottNetworkRuns) {
    SessionConfig cfg = base_config();
    cfg.data_loss = {0.92, 0.6, 0.01, 0.8};  // residual + partial-BAD loss
    cfg.num_windows = 10;
    const SessionResult r = run_session(cfg);
    EXPECT_GT(r.data_channel.dropped, 0u);
    EXPECT_EQ(r.windows.size(), 10u);
}

TEST(Session, InvalidConfigThrows) {
    SessionConfig cfg = base_config();
    cfg.num_windows = 0;
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
    cfg = base_config();
    cfg.stream.movie = "Unknown Movie";
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
    cfg = base_config();
    cfg.alpha = 2.0;
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
}

TEST(Session, AckLossToleratedViaMaxSeq) {
    SessionConfig cfg = base_config();
    cfg.feedback_loss = {0.5, 0.5};  // very lossy ACK path
    const SessionResult r = run_session(cfg);
    EXPECT_EQ(r.acks_sent, 20u);
    EXPECT_LT(r.acks_applied, r.acks_sent);
    EXPECT_GT(r.acks_applied, 0u);
}

}  // namespace
