#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "net/fragment.hpp"

namespace {

using espread::net::FaultChannel;
using espread::net::GilbertParams;
using espread::net::ImpairmentConfig;
using espread::net::LinkConfig;
using espread::sim::EventQueue;
using espread::sim::from_millis;
using espread::sim::Rng;
using espread::sim::SimTime;

constexpr GilbertParams kLossless{1.0, 0.0};

TEST(Channel, DeliveryTimeIsSerializationPlusPropagation) {
    EventQueue q;
    // 1000 bits at 1 Mb/s = 1 ms serialization; 11.5 ms propagation.
    FaultChannel<int> ch{q, LinkConfig{1e6, from_millis(11.5)}, kLossless, Rng{1}};
    SimTime arrival = -1;
    ch.set_receiver([&](int) { arrival = q.now(); });
    ch.send(7, 1000);
    q.run();
    EXPECT_EQ(arrival, from_millis(12.5));
}

TEST(Channel, BackToBackMessagesSerialize) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, kLossless, Rng{1}};
    std::vector<SimTime> arrivals;
    std::vector<int> payloads;
    ch.set_receiver([&](int v) {
        arrivals.push_back(q.now());
        payloads.push_back(v);
    });
    ch.send(1, 1000);
    ch.send(2, 1000);
    ch.send(3, 1000);
    q.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(payloads, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(arrivals[0], from_millis(1));
    EXPECT_EQ(arrivals[1], from_millis(2));
    EXPECT_EQ(arrivals[2], from_millis(3));
}

TEST(Channel, LinkFreesUpOverTime) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, kLossless, Rng{1}};
    ch.set_receiver([](int) {});
    EXPECT_EQ(ch.next_free_time(), 0);
    ch.send(1, 2000);
    EXPECT_EQ(ch.next_free_time(), from_millis(2));
    EXPECT_EQ(ch.serialization_time(1000), from_millis(1));
    q.run();
}

TEST(Channel, AllPacketsDroppedWhenAlwaysBad) {
    EventQueue q;
    // p_good = 0 and p_bad = 1: everything after the first packet dies.
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{0.0, 1.0}, Rng{1}};
    int received = 0;
    ch.set_receiver([&](int) { ++received; });
    for (int i = 0; i < 10; ++i) ch.send(i, 100);
    q.run();
    EXPECT_EQ(received, 1);  // initial GOOD state admits the first packet
    EXPECT_EQ(ch.stats().sent, 10u);
    EXPECT_EQ(ch.stats().delivered, 1u);
    EXPECT_EQ(ch.stats().dropped, 9u);
    EXPECT_EQ(ch.stats().bits_sent, 1000u);
    // The 9 drops form one (still open) loss run of length 9.
    const auto runs = ch.stats().loss_runs;
    EXPECT_EQ(runs.total(), 1u);
    EXPECT_EQ(runs.sum(), 9u);
    EXPECT_EQ(runs.counts()[9], 1u);
}

TEST(Channel, LosslessChannelHasNoLossRuns) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, kLossless, Rng{1}};
    ch.set_receiver([](int) {});
    for (int i = 0; i < 20; ++i) ch.send(i, 100);
    q.run();
    EXPECT_EQ(ch.stats().loss_runs.total(), 0u);
}

TEST(Channel, LossRunLengthsSumToDroppedPackets) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{0.9, 0.5}, Rng{7}};
    ch.set_receiver([](int) {});
    for (int i = 0; i < 500; ++i) ch.send(i, 100);
    q.run();
    const auto s = ch.stats();
    ASSERT_GT(s.dropped, 0u);
    ASSERT_LT(s.dropped, s.sent);
    // Every dropped packet belongs to exactly one run, so the exact sum
    // of the run lengths must equal the drop total.
    EXPECT_EQ(s.loss_runs.counts()[0], 0u);  // a run has length >= 1
    EXPECT_EQ(s.loss_runs.sum(), s.dropped);
    EXPECT_LE(s.loss_runs.total(), s.dropped);
}

TEST(Channel, LossyDeliveryIsDeterministicPerSeed) {
    auto run = [](std::uint64_t seed) {
        EventQueue q;
        FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{0.9, 0.5}, Rng{seed}};
        std::vector<int> got;
        ch.set_receiver([&](int v) { got.push_back(v); });
        for (int i = 0; i < 200; ++i) ch.send(i, 500);
        q.run();
        return got;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Channel, MoveOnlyPayloadsSupported) {
    EventQueue q;
    FaultChannel<std::unique_ptr<std::string>> ch{q, LinkConfig{1e6, 0}, kLossless,
                                                  Rng{1}};
    std::string got;
    ch.set_receiver([&](std::unique_ptr<std::string> s) { got = *s; });
    ch.send(std::make_unique<std::string>("hello"), 64);
    q.run();
    EXPECT_EQ(got, "hello");
}

TEST(Channel, RejectsBadLinkConfig) {
    EventQueue q;
    EXPECT_THROW((FaultChannel<int>{q, LinkConfig{0.0, 0}, kLossless, Rng{1}}),
                 std::invalid_argument);
    EXPECT_THROW((FaultChannel<int>{q, LinkConfig{1e6, -5}, kLossless, Rng{1}}),
                 std::invalid_argument);
}

// ---- FaultChannel ---------------------------------------------------------

/// delivered + dropped + corrupt_rejected == sent + duplicated, and the
/// loss-run histogram's sum still equals dropped: the reconciliation contract
/// every impaired run must satisfy once the queue has drained.
void expect_reconciled(const espread::net::ChannelStats& s,
                       std::size_t received) {
    EXPECT_EQ(s.delivered, received);
    EXPECT_EQ(s.delivered + s.dropped + s.corrupt_rejected,
              s.sent + s.duplicated);
    EXPECT_LE(s.forced_dropped, s.dropped);
    EXPECT_EQ(s.loss_runs.sum(), s.dropped);
}

TEST(FaultChannel, InactiveConfigMatchesBareChannelExactly) {
    auto run = [](auto& ch, EventQueue& q) {
        std::vector<std::pair<SimTime, int>> got;
        ch.set_receiver([&](int v) { got.emplace_back(q.now(), v); });
        for (int i = 0; i < 300; ++i) ch.send(i, 700);
        q.run();
        return got;
    };
    EventQueue q1;
    FaultChannel<int> bare{q1, LinkConfig{1e6, from_millis(3)},
                           GilbertParams{0.9, 0.5}, Rng{42}};  // never impaired
    EventQueue q2;
    FaultChannel<int> faulty{q2, LinkConfig{1e6, from_millis(3)},
                             GilbertParams{0.9, 0.5}, Rng{42}};
    faulty.set_impairments(ImpairmentConfig{}, Rng{7});  // inactive
    EXPECT_FALSE(faulty.impaired());
    const auto a = run(bare, q1);
    const auto b = run(faulty, q2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(bare.stats().dropped, faulty.stats().dropped);
}

TEST(FaultChannel, FullMixReconciles) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, from_millis(3)},
                         GilbertParams{0.9, 0.5}, Rng{11}};
    ImpairmentConfig cfg;
    cfg.reorder_rate = 0.2;
    cfg.duplicate_rate = 0.15;
    cfg.corrupt_rate = 0.2;
    cfg.jitter_rate = 0.3;
    cfg.blackouts.push_back({from_millis(200), from_millis(230)});
    // Corrupter: half detected (reject), half survives mutated.
    ch.set_impairments(cfg, Rng{99}, [](const int& v, Rng& r) {
        return r.bernoulli(0.5) ? std::optional<int>(v ^ 1) : std::nullopt;
    });
    std::size_t received = 0;
    ch.set_receiver([&](int) { ++received; });
    for (int i = 0; i < 500; ++i) ch.send(i, 700);
    q.run();
    const auto s = ch.stats();
    EXPECT_EQ(s.sent, 500u);
    EXPECT_GT(s.duplicated, 0u);
    EXPECT_GT(s.corrupt_rejected, 0u);
    EXPECT_GT(s.reordered, 0u);
    // 0.7 ms packets back to back: the 30 ms blackout covers 43 departures.
    EXPECT_EQ(s.forced_dropped, 43u);
    expect_reconciled(s, received);
}

TEST(FaultChannel, SidebandSendsReconcileWithTheLedger) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, from_millis(3)},
                         GilbertParams{0.9, 0.5}, Rng{12}};
    ImpairmentConfig cfg;
    cfg.reorder_rate = 0.2;
    cfg.duplicate_rate = 0.15;
    cfg.corrupt_rate = 0.2;
    cfg.blackouts.push_back({from_millis(100), from_millis(140)});
    ch.set_impairments(cfg, Rng{98}, [](const int& v, Rng& r) {
        return r.bernoulli(0.5) ? std::optional<int>(v ^ 1) : std::nullopt;
    });
    std::size_t received = 0;
    ch.set_receiver([&](int) { ++received; });
    // Interleave media sends with side-band repair/retransmission sends;
    // every third message rides the side band.
    std::size_t sideband = 0, sideband_bits = 0;
    for (int i = 0; i < 300; ++i) {
        if (i % 3 == 2) {
            ch.send_sideband(i, 900);
            ++sideband;
            sideband_bits += 900;
        } else {
            ch.send(i, 700);
        }
    }
    q.run();
    const auto s = ch.stats();
    // Side-band traffic is a broken-out subset of the same ledger: it is
    // included in sent/bits_sent, so the reconciliation invariant covers
    // it — no packet class escapes the accounting.
    EXPECT_EQ(s.sent, 300u);
    EXPECT_EQ(s.sideband_sent, sideband);
    EXPECT_EQ(s.sideband_bits, sideband_bits);
    EXPECT_LE(s.sideband_sent, s.sent);
    EXPECT_LE(s.sideband_bits, s.bits_sent);
    expect_reconciled(s, received);
}

TEST(FaultChannel, ReorderDisplacementIsBounded) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig cfg;
    cfg.reorder_rate = 0.5;
    ch.set_impairments(cfg, Rng{5});
    std::vector<int> order;
    ch.set_receiver([&](int v) { order.push_back(v); });
    constexpr int kN = 200;
    for (int i = 0; i < kN; ++i) ch.send(i, 1000);
    q.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
    // With back-to-back equal-size lossless sends, a displaced packet moves
    // at most kReorderMaxDisplacement positions in either direction.
    constexpr int kMaxShift =
        static_cast<int>(ImpairmentConfig::kReorderMaxDisplacement);
    bool any_displaced = false;
    for (int pos = 0; pos < kN; ++pos) {
        EXPECT_LE(std::abs(order[pos] - pos), kMaxShift) << "at position " << pos;
        if (order[pos] != pos) any_displaced = true;
    }
    EXPECT_TRUE(any_displaced);
    // Every packet still arrives exactly once.
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < kN; ++i) EXPECT_EQ(sorted[i], i);
    expect_reconciled(ch.stats(), order.size());
}

TEST(FaultChannel, DuplicatesDeliverTwiceAndCount) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig cfg;
    cfg.duplicate_rate = 1.0;
    ch.set_impairments(cfg, Rng{3});
    std::vector<int> got;
    ch.set_receiver([&](int v) { got.push_back(v); });
    for (int i = 0; i < 10; ++i) ch.send(i, 1000);
    q.run();
    const auto s = ch.stats();
    EXPECT_EQ(s.sent, 10u);
    EXPECT_EQ(s.duplicated, 10u);
    EXPECT_EQ(s.delivered, 20u);
    // Each value arrives exactly twice, the copy after the original.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(std::count(got.begin(), got.end(), i), 2);
    }
    expect_reconciled(s, got.size());
}

/// Payload whose body is derived from its tag, so a delivery that hands
/// over a moved-from or recycled slot's message is detectable.
struct Tagged {
    int tag = 0;
    std::string body;
};

Tagged tagged(int i) { return Tagged{i, "payload-" + std::to_string(i)}; }

// The pending list under churn: with 30% duplication and 30% reordering,
// displaced arrivals are filed behind later ones and the list compacts
// while other packets are still in flight.  Every delivery must carry its
// own payload, every send must arrive once and every duplicate exactly
// once more.
TEST(FaultChannel, EveryDeliveryCarriesItsOwnPayload) {
    constexpr int kN = 600;
    EventQueue q;
    FaultChannel<Tagged> ch{q, LinkConfig{1e6, from_millis(3)}, kLossless,
                            Rng{5}};
    ImpairmentConfig cfg;
    cfg.duplicate_rate = 0.3;
    cfg.reorder_rate = 0.3;
    ch.set_impairments(cfg, Rng{17});
    std::vector<int> count(kN, 0);
    std::size_t received = 0;
    ch.set_receiver([&](Tagged m) {
        ASSERT_GE(m.tag, 0);
        ASSERT_LT(m.tag, kN);
        EXPECT_EQ(m.body, "payload-" + std::to_string(m.tag));
        ++count[static_cast<std::size_t>(m.tag)];
        ++received;
    });
    for (int i = 0; i < kN; ++i) {
        ch.send(tagged(i), 700);
        // Drain part of the backlog every few sends so slots recycle
        // while later packets are still in flight.
        if (i % 7 == 6) q.run_until(q.now() + from_millis(5));
    }
    q.run();
    // Reuse happened: far fewer slots than deliveries.
    EXPECT_LT(ch.in_flight_slots(), static_cast<std::size_t>(kN) / 4);
    const auto s = ch.stats();
    EXPECT_GT(s.duplicated, 0u);
    EXPECT_GT(s.reordered, 0u);
    std::size_t extra = 0;
    for (int i = 0; i < kN; ++i) {
        EXPECT_GE(count[static_cast<std::size_t>(i)], 1) << "tag " << i;
        EXPECT_LE(count[static_cast<std::size_t>(i)], 2) << "tag " << i;
        extra += static_cast<std::size_t>(count[static_cast<std::size_t>(i)] - 1);
    }
    EXPECT_EQ(extra, s.duplicated);
    expect_reconciled(s, received);
}

// A receiver that sends on its own channel from inside a delivery, in
// bursts of in-band and side-band packets of mixed sizes under heavy
// reordering and jitter: the in-order ring, the displaced keys and the
// parked payloads all grow while a delivery is running.  The receiver
// takes the payload by reference, as the Session does, and reads it
// again after its sends: an in-order payload is delivered from its slot,
// which those sends must not touch.  Every payload must arrive intact,
// every send at least once.
TEST(FaultChannel, ReceiverSendingMidDeliveryKeepsEveryPayloadIntact) {
    constexpr int kSeeds = 6;
    constexpr int kFanout = 80;
    constexpr int kTags = kSeeds + kSeeds * kFanout;
    EventQueue q;
    FaultChannel<Tagged> ch{q, LinkConfig{1e6, from_millis(3)}, kLossless,
                            Rng{7}};
    ImpairmentConfig cfg;
    cfg.reorder_rate = 0.4;
    cfg.jitter_rate = 0.4;
    cfg.jitter_max = from_millis(4);
    cfg.duplicate_rate = 0.2;
    ch.set_impairments(cfg, Rng{29});
    std::vector<int> count(kTags, 0);
    ch.set_receiver([&](Tagged&& m) {
        ASSERT_GE(m.tag, 0);
        ASSERT_LT(m.tag, kTags);
        EXPECT_EQ(m.body, "payload-" + std::to_string(m.tag));
        if (++count[static_cast<std::size_t>(m.tag)] > 1 || m.tag >= kSeeds) return;
        const Tagged before = m;
        for (int i = 0; i < kFanout; ++i) {
            const int tag = kSeeds + m.tag * kFanout + i;
            const auto bits = static_cast<std::size_t>(500 + 250 * (i % 4));
            if (i % 3 == 0) {
                ch.send_sideband(tagged(tag), bits);
            } else {
                ch.send(tagged(tag), bits);
            }
        }
        EXPECT_EQ(m.tag, before.tag);
        EXPECT_EQ(m.body, before.body);
    });
    for (int i = 0; i < kSeeds; ++i) ch.send(tagged(i), 1000);
    q.run();
    for (int i = 0; i < kTags; ++i) {
        EXPECT_GE(count[static_cast<std::size_t>(i)], 1) << "tag " << i;
    }
    const auto s = ch.stats();
    EXPECT_GT(s.reordered, 0u);
    EXPECT_GT(ch.in_flight_slots(), 2u * 16u);
    expect_reconciled(s, static_cast<std::size_t>(
                             std::accumulate(count.begin(), count.end(), 0)));
}

TEST(Channel, InFlightSlotsAreReusedAfterDrain) {
    EventQueue q;
    FaultChannel<Tagged> ch{q, LinkConfig{1e6, from_millis(5)}, kLossless, Rng{1}};
    std::vector<int> got;
    ch.set_receiver([&](Tagged m) {
        EXPECT_EQ(m.body, "payload-" + std::to_string(m.tag));
        got.push_back(m.tag);
    });
    for (int i = 0; i < 10; ++i) ch.send(tagged(i), 1000);
    EXPECT_EQ(ch.in_flight_slots(), 10u);
    q.run();
    for (int round = 1; round <= 3; ++round) {
        for (int i = 0; i < 10; ++i) ch.send(tagged(10 * round + i), 1000);
        q.run();
        EXPECT_EQ(ch.in_flight_slots(), 10u) << "round " << round;
    }
    std::vector<int> expected(40);
    for (int i = 0; i < 40; ++i) expected[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(got, expected);
}

/// FNV-1a over one 64-bit word.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

// Pins the run order of a seeded impaired channel beside heap events:
// reorder, duplicate and jitter faults, lossy Gilbert drops, and side-band
// sends that shorter in-band packets overtake, with timer events on the
// queue's heap at whole milliseconds.  Sizes are multiples of 500 bits,
// so many arrivals tie with each other and with the timers, and only the
// FIFO stamp orders them.  The hash over every (now, tag) pair in run
// order was recorded when each delivery was its own heap event, so it
// holds the channel to that order exactly.
TEST(FaultChannel, DeliveryOrderMatchesPinnedHash) {
    EventQueue q;
    FaultChannel<Tagged> ch{q, LinkConfig{1e6, from_millis(3)},
                            GilbertParams{0.95, 0.5}, Rng{11}};
    ImpairmentConfig cfg;
    cfg.reorder_rate = 0.2;
    cfg.duplicate_rate = 0.1;
    cfg.jitter_rate = 0.2;
    cfg.jitter_max = from_millis(4);
    ch.set_impairments(cfg, Rng{23});
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t runs = 0;
    const auto record = [&](int tag) {
        fnv_mix(h, static_cast<std::uint64_t>(q.now()));
        fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
        ++runs;
    };
    ch.set_receiver([&](Tagged m) { record(m.tag); });
    Rng traffic{5};
    for (int i = 0; i < 3000; ++i) {
        const auto bits = static_cast<std::size_t>(500 * traffic.uniform_int(1, 4));
        if (traffic.bernoulli(0.25)) {
            ch.send_sideband(tagged(i), bits);
        } else {
            ch.send(tagged(i), bits);
        }
        if (i % 4 == 3) {
            q.schedule_at(q.now() + from_millis(1), [&record, i] { record(-1 - i); });
            q.run_until(q.now() + from_millis(1));
        }
    }
    q.run();
    const auto s = ch.stats();
    EXPECT_GT(s.reordered, 0u);
    EXPECT_GT(s.duplicated, 0u);
    EXPECT_GT(s.dropped, 0u);
    EXPECT_EQ(runs, s.delivered + 750);
    EXPECT_EQ(h, 0xcc9a04bf85441bfaULL) << std::hex << h;
}

TEST(Channel, MoveOnlyPayloadIgnoresDuplicateDirective) {
    EventQueue q;
    FaultChannel<std::unique_ptr<std::string>> ch{q, LinkConfig{1e6, 0}, kLossless,
                                                  Rng{1}};
    std::vector<std::string> got;
    ch.set_receiver([&](std::unique_ptr<std::string> s) {
        ASSERT_NE(s, nullptr);
        got.push_back(*s);
    });
    ImpairmentConfig dup;
    dup.duplicate_rate = 1.0;
    ch.set_impairments(dup, Rng{2});
    EXPECT_TRUE(ch.send(std::make_unique<std::string>("once"), 64));
    q.run();
    EXPECT_EQ(got, (std::vector<std::string>{"once"}));
    const auto s = ch.stats();
    EXPECT_EQ(s.duplicated, 0u);
    EXPECT_EQ(s.delivered, 1u);
    expect_reconciled(s, got.size());
}

TEST(FaultChannel, BlackoutKillsExactlyTheInterval) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig cfg;
    // Packets are 1 ms each, back to back: packet i departs at i ms.
    cfg.blackouts.push_back({from_millis(5), from_millis(10)});
    ch.set_impairments(cfg, Rng{3});
    std::vector<int> got;
    ch.set_receiver([&](int v) { got.push_back(v); });
    for (int i = 0; i < 20; ++i) ch.send(i, 1000);
    q.run();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15,
                                     16, 17, 18, 19}));
    const auto s = ch.stats();
    EXPECT_EQ(s.forced_dropped, 5u);
    EXPECT_EQ(s.dropped, 5u);
    // The five scripted drops form one loss run.
    EXPECT_EQ(s.loss_runs.total(), 1u);
    EXPECT_EQ(s.loss_runs.counts()[5], 1u);
    expect_reconciled(s, got.size());
}

TEST(FaultChannel, LongBlackoutRunStaysExactPastTheLinearBuckets) {
    // A 40-packet outage is one loss run longer than the histogram's exact
    // range: its bucket is 25% wide, but the sum still counts every drop.
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig cfg;
    cfg.blackouts.push_back({from_millis(10), from_millis(50)});
    ch.set_impairments(cfg, Rng{3});
    std::vector<int> got;
    ch.set_receiver([&](int v) { got.push_back(v); });
    for (int i = 0; i < 60; ++i) ch.send(i, 1000);
    q.run();
    const auto s = ch.stats();
    ASSERT_EQ(s.dropped, 40u);
    static_assert(40 >= espread::obs::Histogram::kLinearMax);
    EXPECT_EQ(s.loss_runs.total(), 1u);
    EXPECT_EQ(s.loss_runs.sum(), s.dropped);
    EXPECT_EQ(s.loss_runs.quantile(1.0),
              espread::obs::Histogram::bucket_upper(
                  espread::obs::Histogram::bucket_for(40)));
    expect_reconciled(s, got.size());
}

TEST(FaultChannel, CorruptWithoutCorrupterRejectsOutright) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig cfg;
    cfg.corrupt_rate = 1.0;
    ch.set_impairments(cfg, Rng{3});  // no corrupter installed
    std::size_t received = 0;
    ch.set_receiver([&](int) { ++received; });
    for (int i = 0; i < 8; ++i) ch.send(i, 1000);
    q.run();
    EXPECT_EQ(received, 0u);
    EXPECT_EQ(ch.stats().corrupt_rejected, 8u);
    expect_reconciled(ch.stats(), received);
}

TEST(FaultChannel, ImpairedRunIsDeterministicPerSeed) {
    auto run = [](std::uint64_t fault_seed) {
        EventQueue q;
        FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{0.9, 0.5},
                             Rng{5}};
        ImpairmentConfig cfg;
        cfg.reorder_rate = 0.3;
        cfg.duplicate_rate = 0.2;
        cfg.jitter_rate = 0.4;
        ch.set_impairments(cfg, Rng{fault_seed});
        std::vector<std::pair<SimTime, int>> got;
        ch.set_receiver([&](int v) { got.emplace_back(q.now(), v); });
        for (int i = 0; i < 200; ++i) ch.send(i, 500);
        q.run();
        return got;
    };
    EXPECT_EQ(run(9), run(9));
    EXPECT_NE(run(9), run(10));
}

TEST(FaultChannel, GilbertStreamUnchangedByFaultLayer) {
    // Enabling impairments must not shift the link's loss process: the same
    // send indices are Gilbert-dropped with and without faults.
    auto gilbert_drops = [](bool impaired) {
        EventQueue q;
        FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{0.9, 0.5},
                             Rng{21}};
        if (impaired) {
            ImpairmentConfig cfg;
            cfg.duplicate_rate = 0.5;
            cfg.jitter_rate = 0.5;
            ch.set_impairments(cfg, Rng{77});
        }
        std::vector<int> dropped;
        ch.set_receiver([](int) {});
        for (int i = 0; i < 300; ++i) {
            if (!ch.send(i, 500)) dropped.push_back(i);
        }
        q.run();
        return dropped;
    };
    EXPECT_EQ(gilbert_drops(false), gilbert_drops(true));
}

TEST(FaultChannel, ValidateRejectsBadConfigs) {
    EventQueue q;
    FaultChannel<int> ch{q, LinkConfig{1e6, 0}, GilbertParams{1.0, 0.0},
                         Rng{1}};
    ImpairmentConfig bad_rate;
    bad_rate.duplicate_rate = 1.5;
    EXPECT_THROW(ch.set_impairments(bad_rate, Rng{1}), std::invalid_argument);
    ImpairmentConfig bad_blackout;
    bad_blackout.blackouts.push_back({from_millis(10), from_millis(5)});
    EXPECT_THROW(ch.set_impairments(bad_blackout, Rng{1}),
                 std::invalid_argument);
    ImpairmentConfig inactive;
    inactive.blackouts.push_back({from_millis(5), from_millis(5)});  // empty
    ch.set_impairments(inactive, Rng{1});
    EXPECT_FALSE(ch.impaired());
}

TEST(Fragment, ExactDivision) {
    EXPECT_EQ(espread::net::packet_count(32768, 16384), 2u);
    EXPECT_EQ(espread::net::fragment_sizes(32768, 16384),
              (std::vector<std::size_t>{16384, 16384}));
}

TEST(Fragment, RemainderGoesLast) {
    EXPECT_EQ(espread::net::fragment_sizes(20000, 16384),
              (std::vector<std::size_t>{16384, 3616}));
    EXPECT_EQ(espread::net::packet_count(20000, 16384), 2u);
}

TEST(Fragment, SmallFrameSinglePacket) {
    EXPECT_EQ(espread::net::fragment_sizes(100, 16384),
              (std::vector<std::size_t>{100}));
}

TEST(Fragment, ZeroSizeFrameStillNeedsAPacket) {
    EXPECT_EQ(espread::net::packet_count(0, 16384), 1u);
    EXPECT_EQ(espread::net::fragment_sizes(0, 16384),
              (std::vector<std::size_t>{1}));
}

// fragment_size() is the list's closed form: at every frame size from 0 to
// three MTUs and one bit, packets 0..count-1 are full but the last, which
// holds the remainder (a zero-size frame sends one 1-bit packet), and
// fragment_sizes() lists exactly those sizes.
TEST(Fragment, ClosedFormSizesMatchTheList) {
    constexpr std::size_t kMtu = espread::net::kDefaultPacketBits;
    for (std::size_t bits = 0; bits <= 3 * kMtu + 1; ++bits) {
        const std::size_t count = espread::net::packet_count(bits, kMtu);
        std::vector<std::size_t> sizes;
        std::size_t sum = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t size = espread::net::fragment_size(bits, kMtu, i);
            ASSERT_GE(size, 1u) << bits << " bits, packet " << i;
            ASSERT_EQ(size == kMtu, i + 1 < count || (bits > 0 && bits % kMtu == 0))
                << bits << " bits, packet " << i;
            sizes.push_back(size);
            sum += size;
        }
        ASSERT_EQ(sum, std::max<std::size_t>(bits, 1)) << bits << " bits";
        ASSERT_EQ(espread::net::fragment_sizes(bits, kMtu), sizes) << bits << " bits";
    }
}

TEST(Fragment, ZeroMtuThrows) {
    EXPECT_THROW(espread::net::packet_count(100, 0), std::invalid_argument);
}

}  // namespace
