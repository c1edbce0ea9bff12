// Session against Engine: the two execution paths run one adaptive loop.
//
// proto::Session (full wire codec, receiver, event clock) and the SoA
// engine::ShardedEngine both run the paper's §4.2 loop: the client ACKs
// each window's longest transmission-order loss run, the server averages
// the ACKs into b_hat (Eq. 1) and b_hat picks the next window's k-CPO.
// On a configuration both model, their per-window statistics must agree:
//
//   Session: constant 2128-bit audio LDUs, 24 per window, 1064-bit
//            packets (two per LDU), in-order or layered k-CPO spreading,
//            Gilbert(0.92, p_bad) on data and feedback, default links, no
//            impairment, governor or recovery;
//   Engine:  n = 24, f = 2, spread off or on, the same channels.
//
// Per arm, mean CLF, mean CLF^2 and mean bound over windows 2..99 must
// agree within kMaxZ standard errors.  The errors come from per-session
// means (a session's windows are correlated through the loop).  The
// Engine runs kEngineFactor times as many sessions and is the reference;
// its own error is taken as the Session's scaled by sqrt(sessions ratio).
//
// The bound is what checks the loop: mean CLF hardly sees it on this
// channel (freezing the Engine's bound at the prior, alpha = 0, moves
// spread mean CLF by under 0.01, under 2 standard errors here), while the
// bound's mean follows every ACK.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "engine/engine.hpp"
#include "obs/histogram.hpp"
#include "protocol/config.hpp"
#include "protocol/session.hpp"

namespace {

using espread::engine::EngineConfig;
using espread::engine::ShardedEngine;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::StreamKind;

constexpr std::size_t kLdus = 24;
constexpr std::size_t kWindows = 100;
constexpr std::size_t kSkip = 2;  // windows 0-1 run on the prior
constexpr std::size_t kSessions = 1500;
constexpr std::size_t kEngineFactor = 10;
constexpr double kMaxZ = 4.0;

/// The three gated statistics, in order: CLF, CLF^2, bound.
constexpr std::size_t kStats = 3;
const std::array<const char*, kStats> kStatNames = {"clf", "clf^2", "bound"};
using Stats = std::array<double, kStats>;

struct Arm {
    bool spread;
    double p_bad;
};

SessionConfig session_config(const Arm& arm, std::uint64_t seed) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kAudio;
    cfg.stream.ldus_per_window = kLdus;
    cfg.packet_bits = 1064;  // 2128-bit LDUs: two packets each
    cfg.scheme = arm.spread ? Scheme::kLayeredSpread : Scheme::kInOrder;
    cfg.data_loss = {0.92, arm.p_bad};
    cfg.feedback_loss = {0.92, arm.p_bad};
    cfg.num_windows = kWindows;
    cfg.seed = seed;
    return cfg;
}

/// Mean and standard error of each statistic over per-session means.
struct SessionSample {
    Stats mean{};
    Stats se{};
};

SessionSample run_sessions(const Arm& arm) {
    std::vector<Stats> per_session(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
        const espread::proto::SessionResult r =
            espread::proto::run_session(session_config(arm, 1 + s));
        Stats& sum = per_session[s];
        for (std::size_t w = kSkip; w < kWindows; ++w) {
            const double clf = static_cast<double>(r.windows[w].clf);
            sum[0] += clf;
            sum[1] += clf * clf;
            sum[2] += static_cast<double>(r.windows[w].bound_used);
        }
        for (double& v : sum) v /= static_cast<double>(kWindows - kSkip);
    }

    SessionSample out;
    const double n = static_cast<double>(kSessions);
    for (std::size_t k = 0; k < kStats; ++k) {
        double sum = 0.0;
        for (const Stats& s : per_session) sum += s[k];
        out.mean[k] = sum / n;
        double sq = 0.0;
        for (const Stats& s : per_session) {
            sq += (s[k] - out.mean[k]) * (s[k] - out.mean[k]);
        }
        out.se[k] = std::sqrt(sq / (n - 1.0) / n);
    }
    return out;
}

/// Engine means over windows kSkip.. of every session: the histograms
/// after kWindows windows minus those after kSkip.  A 24-LDU window keeps
/// CLF and bound inside the histograms' exact buckets.
Stats run_engine(const Arm& arm) {
    EngineConfig cfg;
    cfg.sessions = kSessions * kEngineFactor;
    cfg.shards = 2;
    cfg.window_ldus = kLdus;
    cfg.packets_per_ldu = 2;
    cfg.spread = arm.spread;
    cfg.data_loss = {0.92, arm.p_bad};
    cfg.feedback_loss = {0.92, arm.p_bad};
    cfg.seed = 31;
    ShardedEngine engine(cfg);
    engine.run(kSkip);
    const espread::engine::EngineSummary head = engine.summary();
    engine.run(kWindows - kSkip);
    const espread::engine::EngineSummary all = engine.summary();

    Stats sum{};
    double windows = 0.0;
    for (std::size_t v = 0; v <= kLdus; ++v) {
        const double x = static_cast<double>(v);
        const double clf = static_cast<double>(all.clf_histogram.counts()[v] -
                                               head.clf_histogram.counts()[v]);
        const double bound =
            static_cast<double>(all.bound_histogram.counts()[v] -
                                head.bound_histogram.counts()[v]);
        sum[0] += clf * x;
        sum[1] += clf * x * x;
        sum[2] += bound * x;
        windows += clf;
    }
    EXPECT_EQ(windows, static_cast<double>(cfg.sessions * (kWindows - kSkip)));
    for (double& v : sum) v /= windows;
    return sum;
}

void PrintTo(const Arm& arm, std::ostream* os) {
    *os << (arm.spread ? "spread" : "in-order") << " p_bad " << arm.p_bad;
}

class SessionVsEngine : public ::testing::TestWithParam<Arm> {};

TEST_P(SessionVsEngine, WindowStatisticsAgree) {
    const Arm arm = GetParam();
    const SessionSample session = run_sessions(arm);
    const Stats engine = run_engine(arm);
    const double engine_share = 1.0 / static_cast<double>(kEngineFactor);
    for (std::size_t k = 0; k < kStats; ++k) {
        const double se = session.se[k] * std::sqrt(1.0 + engine_share);
        const double z = (session.mean[k] - engine[k]) / se;
        std::printf("%-6s Session %.4f +- %.4f  Engine %.4f  z = %+.2f\n",
                    kStatNames[k], session.mean[k], session.se[k], engine[k], z);
        EXPECT_LE(std::fabs(z), kMaxZ)
            << kStatNames[k] << ": Session " << session.mean[k] << " +- "
            << session.se[k] << ", Engine " << engine[k] << ", z = " << z;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Arms, SessionVsEngine,
    ::testing::Values(Arm{false, 0.6}, Arm{false, 0.7}, Arm{true, 0.6},
                      Arm{true, 0.7}),
    [](const ::testing::TestParamInfo<Arm>& arm_info) {
        const Arm& arm = arm_info.param;
        return std::string(arm.spread ? "Spread" : "InOrder") +
               (arm.p_bad < 0.65 ? "Pbad60" : "Pbad70");
    });

}  // namespace
