// Config-space property harness for proto::Session.
//
// Hand-picked configs pin behaviour where someone thought to look; this
// harness draws a few hundred random *valid* SessionConfigs over scheme x
// recovery x governor x impairment mix x stream kind x drop policy, runs
// each for a handful of windows, and asserts the invariants every config
// must satisfy whatever the network does:
//   * both channel ledgers reconcile
//     (delivered + dropped + corrupt_rejected == sent + duplicated);
//   * per window, clf <= lost_ldus <= n;
//   * a rerun reproduces the summary and every metric counter;
//   * with recovery off, the feedback path carries exactly the ACKs;
//   * uncoded schemes with recovery off send nothing on the side band and
//     register no rlc_* key.
// A second sweep pushes one field of a valid config out of range and
// requires run_session to refuse it with std::invalid_argument.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocol/report.hpp"
#include "protocol/session.hpp"
#include "protocol/wire.hpp"
#include "sim/rng.hpp"

namespace {

using espread::net::ChannelStats;
using espread::proto::DropPolicy;
using espread::proto::NackRequest;
using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::StreamKind;
using espread::sim::Rng;

/// Uniform double in [lo, hi).
double uniform(Rng& rng, double lo, double hi) {
    return lo + (hi - lo) * rng.uniform();
}

constexpr std::size_t kShards = 8;
constexpr std::size_t kConfigsPerShard = 40;

template <typename T>
T pick(Rng& rng, std::initializer_list<T> options) {
    const auto i = rng.uniform_int(0, options.size() - 1);
    return *(options.begin() + static_cast<std::ptrdiff_t>(i));
}

bool is_coded(Scheme s) {
    return s == Scheme::kRlc || s == Scheme::kHybridSpreadRlc;
}

/// Draws one valid config.  Every branch keeps validate() happy; the
/// invalid space is covered separately by the mutation sweep.
SessionConfig random_config(Rng& rng) {
    SessionConfig cfg;
    cfg.num_windows = static_cast<std::size_t>(rng.uniform_int(6, 10));
    cfg.seed = rng.next_u64();
    cfg.collect_metrics = true;

    cfg.stream.kind =
        pick(rng, {StreamKind::kMpeg, StreamKind::kMjpeg, StreamKind::kAudio});
    if (cfg.stream.kind == StreamKind::kMpeg) {
        cfg.stream.movie =
            pick<const char*>(rng, {"Jurassic Park", "Star Wars", "Terminator",
                                    "Beauty and the Beast"});
        cfg.gops_per_window = static_cast<std::size_t>(rng.uniform_int(1, 2));
    } else {
        cfg.stream.ldus_per_window =
            static_cast<std::size_t>(rng.uniform_int(4, 30));
        cfg.stream.frame_rate = uniform(rng, 15.0, 30.0);
        cfg.stream.mjpeg_mean_bits = uniform(rng, 8000.0, 40000.0);
    }

    cfg.scheme = pick(rng, {Scheme::kInOrder, Scheme::kLayeredNoScramble,
                            Scheme::kLayeredIbo, Scheme::kLayeredSpread,
                            Scheme::kRlc, Scheme::kHybridSpreadRlc});
    if (is_coded(cfg.scheme)) {
        cfg.rlc.window_packets = pick<std::size_t>(rng, {1, 8, 16, 64, 255});
        cfg.rlc.overhead_num = static_cast<std::size_t>(rng.uniform_int(1, 3));
        cfg.rlc.overhead_den = static_cast<std::size_t>(rng.uniform_int(1, 10));
    }

    cfg.retransmit_critical = rng.bernoulli(0.5);
    cfg.alpha = uniform(rng, 0.0, 1.0);
    if (rng.bernoulli(0.15)) {
        cfg.pinned_bound = static_cast<std::size_t>(rng.uniform_int(1, 8));
    }
    cfg.governor.enabled =
        cfg.pinned_bound == 0 && rng.bernoulli(0.5);

    cfg.drop_policy = rng.bernoulli(0.3) ? DropPolicy::kPredictive
                                         : DropPolicy::kReactive;
    cfg.playout_startup_windows = uniform(rng, 0.5, 1.5);

    cfg.recovery.enabled = rng.bernoulli(0.5);

    const double bw = uniform(rng, 0.6e6, 3e6);
    cfg.data_link.bandwidth_bps = bw;
    cfg.feedback_link.bandwidth_bps = bw;
    cfg.data_loss = {uniform(rng, 0.8, 0.99), uniform(rng, 0.2, 0.8)};
    cfg.feedback_loss = {uniform(rng, 0.8, 0.99), uniform(rng, 0.2, 0.8)};

    // Impairment mix: none, data-path faults, feedback-path faults, both,
    // each optionally with a scripted blackout.
    const std::uint64_t mix = rng.uniform_int(0, 3);
    if ((mix & 1) != 0) {
        cfg.data_impairment.reorder_rate = uniform(rng, 0.0, 0.1);
        cfg.data_impairment.duplicate_rate = uniform(rng, 0.0, 0.1);
        cfg.data_impairment.corrupt_rate = uniform(rng, 0.0, 0.1);
        cfg.data_impairment.jitter_rate = uniform(rng, 0.0, 0.1);
        if (rng.bernoulli(0.3)) {
            const std::size_t first =
                static_cast<std::size_t>(rng.uniform_int(1, 3));
            const std::size_t last = first + rng.uniform_int(0, 2);
            // Black out the data transmissions of windows [first, last]:
            // window w's packets depart within [w, w+1) window durations.
            const espread::sim::SimTime T = cfg.window_duration();
            cfg.data_impairment.blackouts.push_back(
                {static_cast<espread::sim::SimTime>(first) * T,
                 static_cast<espread::sim::SimTime>(last + 1) * T});
        }
    }
    if ((mix & 2) != 0) {
        cfg.feedback_impairment.duplicate_rate = uniform(rng, 0.0, 0.1);
        cfg.feedback_impairment.corrupt_rate = uniform(rng, 0.0, 0.1);
        cfg.feedback_impairment.jitter_rate = uniform(rng, 0.0, 0.1);
        if (rng.bernoulli(0.3)) {
            const std::size_t first =
                static_cast<std::size_t>(rng.uniform_int(1, 3));
            cfg.blackout_feedback_windows(first,
                                          first + rng.uniform_int(0, 2));
        }
    }
    return cfg;
}

std::string describe(const SessionConfig& cfg) {
    return std::string("scheme=") + espread::proto::scheme_name(cfg.scheme) +
           " kind=" + std::to_string(static_cast<int>(cfg.stream.kind)) +
           " recovery=" + std::to_string(cfg.recovery.enabled) +
           " governor=" + std::to_string(cfg.governor.enabled) +
           " impaired=" +
           std::to_string(cfg.data_impairment.active() ||
                          cfg.feedback_impairment.active()) +
           " seed=" + std::to_string(cfg.seed);
}

bool ledger_reconciles(const ChannelStats& c) {
    return c.delivered + c.dropped + c.corrupt_rejected ==
           c.sent + c.duplicated;
}

class ConfigSpace : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigSpace, RandomValidConfigsSatisfyUniversalInvariants) {
    Rng rng(espread::sim::derive_seed(0xC0FF1C5Eull, GetParam()));
    for (std::size_t i = 0; i < kConfigsPerShard; ++i) {
        const SessionConfig cfg = random_config(rng);
        SCOPED_TRACE(describe(cfg));
        ASSERT_NO_THROW(cfg.validate());
        const SessionResult r = run_session(cfg);

        EXPECT_TRUE(ledger_reconciles(r.data_channel));
        EXPECT_TRUE(ledger_reconciles(r.feedback_channel));

        const std::size_t n = cfg.window_ldus();
        ASSERT_EQ(r.windows.size(), cfg.num_windows);
        for (const auto& w : r.windows) {
            EXPECT_LE(w.clf, w.lost_ldus) << "window " << w.window;
            EXPECT_LE(w.lost_ldus, n) << "window " << w.window;
        }

        const SessionResult again = run_session(cfg);
        EXPECT_EQ(espread::proto::summarize(r),
                  espread::proto::summarize(again));
        EXPECT_EQ(r.metrics.counters(), again.metrics.counters());

        if (!cfg.recovery.enabled) {
            EXPECT_EQ(r.feedback_channel.sent, r.acks_sent);
            if (!is_coded(cfg.scheme)) {
                EXPECT_EQ(r.data_channel.sideband_sent, 0u);
                for (const auto& [name, value] : r.metrics.counters()) {
                    (void)value;
                    EXPECT_NE(name.rfind("rlc_", 0), 0u) << name;
                }
            }
        }
        if (HasFailure()) return;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, ConfigSpace,
                         ::testing::Range<std::size_t>(0, kShards));

/// Field mutations that take a valid config out of range; each applies
/// only where the field is policed for that config.
struct Mutation {
    const char* name;
    std::function<bool(const SessionConfig&)> applies;
    std::function<void(SessionConfig&)> apply;
};

std::vector<Mutation> mutations() {
    const auto always = [](const SessionConfig&) { return true; };
    return {
        {"num_windows=0", always, [](SessionConfig& c) { c.num_windows = 0; }},
        {"alpha>1", always, [](SessionConfig& c) { c.alpha = 1.5; }},
        {"packet_bits=0", always, [](SessionConfig& c) { c.packet_bits = 0; }},
        {"bandwidth=0", always,
         [](SessionConfig& c) { c.data_link.bandwidth_bps = 0.0; }},
        {"startup=0", always,
         [](SessionConfig& c) { c.playout_startup_windows = 0.0; }},
        {"corrupt_rate>1", always,
         [](SessionConfig& c) { c.data_impairment.corrupt_rate = 1.5; }},
        {"gops=0",
         [](const SessionConfig& c) {
             return c.stream.kind == StreamKind::kMpeg;
         },
         [](SessionConfig& c) { c.gops_per_window = 0; }},
        {"ldus=0",
         [](const SessionConfig& c) {
             return c.stream.kind != StreamKind::kMpeg;
         },
         [](SessionConfig& c) { c.stream.ldus_per_window = 0; }},
        {"rlc.window=256",
         [](const SessionConfig& c) { return is_coded(c.scheme); },
         [](SessionConfig& c) { c.rlc.window_packets = 256; }},
        {"rlc.den=0",
         [](const SessionConfig& c) { return is_coded(c.scheme); },
         [](SessionConfig& c) { c.rlc.overhead_den = 0; }},
        {"recovery+ldus>64",
         [](const SessionConfig& c) {
             return c.recovery.enabled && c.stream.kind != StreamKind::kMpeg;
         },
         [](SessionConfig& c) {
             c.stream.ldus_per_window = NackRequest::kMaxFrames + 1;
         }},
        {"governor+pinned",
         [](const SessionConfig& c) { return c.governor.enabled; },
         [](SessionConfig& c) { c.pinned_bound = 2; }},
    };
}

TEST(ConfigSpaceMutation, OneFieldOutOfRangeIsRefused) {
    Rng rng(0x5EEDBAD0ull);
    const std::vector<Mutation> muts = mutations();
    std::size_t applied = 0;
    for (std::size_t i = 0; i < 200; ++i) {
        SessionConfig cfg = random_config(rng);
        const Mutation& m = muts[rng.uniform_int(0, muts.size() - 1)];
        if (!m.applies(cfg)) continue;
        m.apply(cfg);
        ++applied;
        EXPECT_THROW(run_session(cfg), std::invalid_argument)
            << m.name << " on " << describe(cfg);
    }
    EXPECT_GT(applied, 100u);
}

}  // namespace
