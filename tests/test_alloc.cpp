// Allocation accounting for the hot paths.
//
// A counting global operator new pins three properties: the engine's
// single-shard window step performs ZERO heap allocations once warm
// (the SoA arenas and shard scratch absorb everything), and the
// per-object Session window loop stays within a fixed allocation budget
// per window that does not grow with the packets per window; an event
// queue refilled to its peak pending count allocates nothing; and
// worst_case_clf, which calculate_permutation runs on every candidate
// order, allocates at most once per call.
//
// Not registered under the sanitizers: ASan/TSan interpose the
// allocator and the replacement operators below would fight them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/burst.hpp"
#include "core/interleaver.hpp"
#include "engine/engine.hpp"
#include "net/fragment.hpp"
#include "protocol/session.hpp"
#include "sim/event_queue.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

struct AllocCounter {
    void start() {
        g_allocs.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
    }
    std::uint64_t stop() {
        g_counting.store(false, std::memory_order_relaxed);
        return g_allocs.load(std::memory_order_relaxed);
    }
};

}  // namespace

// Replacement allocation functions must live at global scope.  malloc
// never returns nullptr for these test sizes in practice, but the
// contract requires the failure branch.  noinline keeps GCC's
// -Wmismatched-new-delete heuristic from pairing the inlined malloc/free
// bodies against call sites it analyzed separately.
__attribute__((noinline)) void* operator new(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
    return ::operator new(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
    std::free(p);
}

namespace {

// The tentpole claim: after construction and a short warm-up, stepping
// the single-shard engine allocates nothing — not per window, not per
// session, not for churn arrivals/departures.
TEST(Alloc, EngineStepIsAllocationFreeWhenWarm) {
    espread::engine::EngineConfig cfg;
    cfg.sessions = 4096;
    cfg.shards = 1;
    cfg.window_ldus = 24;
    cfg.packets_per_ldu = 2;
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 4;
    cfg.churn.mean_lifetime_windows = 10.0;
    cfg.churn.mean_arrival_gap_windows = 2.0;
    cfg.seed = 9;
    espread::engine::ShardedEngine engine(cfg);
    engine.run(4);  // warm-up: touches every code path incl. churn

    AllocCounter counter;
    counter.start();
    engine.run(16);
    const std::uint64_t allocs = counter.stop();
    EXPECT_EQ(allocs, 0u)
        << "engine hot path allocated " << allocs << " times in 16 steps";
}

// calculate_permutation scores every candidate order with worst_case_clf.
// One loss mask serves every burst start, so a call allocates at most once
// however many starts it scans (here 86; one mask per start measured 86).
TEST(Alloc, WorstCaseClfAllocatesAtMostOncePerCall) {
    const espread::Permutation p = espread::cyclic_stride_order(97, 10, 0);
    AllocCounter counter;
    counter.start();
    const std::size_t clf = espread::worst_case_clf(p, 12);
    const std::uint64_t allocs = counter.stop();
    EXPECT_GE(clf, 1u);
    EXPECT_LE(allocs, 1u) << "worst_case_clf allocated " << allocs << " times";
}

// The event queue reuses its heap's capacity and moves callbacks: once
// grown to a peak pending count, draining and refilling it to that peak
// with callbacks that fit std::function's inline buffer (a pointer plus
// an index) allocates nothing.
TEST(Alloc, EventQueueRefillToPeakIsAllocationFree) {
    constexpr std::size_t kPeak = 256;
    espread::sim::EventQueue q;
    std::size_t sum = 0;
    const auto fill = [&q, &sum] {
        for (std::size_t i = 0; i < kPeak; ++i) {
            q.schedule_at(q.now() + static_cast<espread::sim::SimTime>(i * 37 % 101),
                          [&sum, i] { sum += i; });
        }
    };
    fill();
    q.run();  // grows the queue to the peak

    AllocCounter counter;
    counter.start();
    for (int round = 0; round < 8; ++round) {
        fill();
        q.run();
    }
    const std::uint64_t allocs = counter.stop();
    EXPECT_EQ(allocs, 0u) << "refilling the queue to its peak allocated "
                          << allocs << " times";
    EXPECT_EQ(sum, 9 * (kPeak * (kPeak - 1) / 2));
}

/// Allocations, data packets and repair packets per window of the Session
/// loop, measured as the difference between a long and a short run so
/// construction and the first window's growth cancel out.
struct SessionRate {
    std::uint64_t allocs_per_window = 0;
    std::size_t packets_per_window = 0;
    std::size_t repairs_per_window = 0;
};

SessionRate session_rate(const espread::proto::SessionConfig& base) {
    constexpr std::size_t kShort = 10;
    constexpr std::size_t kLong = 40;
    struct Run {
        std::uint64_t allocs;
        std::size_t packets;
        std::size_t repairs;
    };
    const auto run_counted = [&base](std::size_t windows) {
        espread::proto::SessionConfig cfg = base;
        cfg.num_windows = windows;
        cfg.seed = 3;
        AllocCounter counter;
        counter.start();
        const auto result = espread::proto::run_session(cfg);
        const std::uint64_t allocs = counter.stop();
        EXPECT_EQ(result.windows.size(), windows);
        return Run{allocs, result.data_channel.sent,
                   result.data_channel.sideband_sent};
    };
    const Run short_run = run_counted(kShort);
    const Run long_run = run_counted(kLong);
    EXPECT_GT(long_run.allocs, short_run.allocs);
    EXPECT_GT(long_run.packets, short_run.packets);
    constexpr std::size_t kSpan = kLong - kShort;
    return SessionRate{(long_run.allocs - short_run.allocs) / kSpan,
                       (long_run.packets - short_run.packets) / kSpan,
                       (long_run.repairs - short_run.repairs) / kSpan};
}

espread::proto::SessionConfig with_packet_bits(std::size_t packet_bits) {
    espread::proto::SessionConfig cfg;
    cfg.packet_bits = packet_bits;
    return cfg;
}

espread::proto::SessionConfig coded(std::size_t overhead_num) {
    espread::proto::SessionConfig cfg;
    cfg.scheme = espread::proto::Scheme::kHybridSpreadRlc;
    cfg.rlc.overhead_num = overhead_num;
    cfg.rlc.overhead_den = 10;
    return cfg;
}

// The per-object Session keeps a bounded allocation budget per window.
// The default config never runs the wire codec (no corruption); the
// packet path (channel rings, receiver window slots and frame tables) is
// allocation-free once warm, and so is the per-window state (the
// receiver's outcome buffer, the retransmission arenas and the trailer
// and ACK vectors recycled on delivery).  What is left: plans built for
// newly seen burst bounds, and fresh vectors replacing those of trailers
// and ACKs the channel lost.  Measured at 3 allocations/window; the bound
// is that plus 4, and a per-packet allocation (~77 data packets per
// window) fails.
TEST(Alloc, SessionWindowLoopStaysWithinBudget) {
    const SessionRate rate = session_rate(with_packet_bits(espread::net::kDefaultPacketBits));
    EXPECT_LE(rate.allocs_per_window, 7u)
        << "session window loop now allocates " << rate.allocs_per_window
        << " times per window";
}

// No allocation per packet: halving the packet size nearly doubles the
// packets per window (77 -> 136) and may raise allocations per window by
// at most a small constant (measured +0: nothing scales with the packet
// count).
TEST(Alloc, SessionAllocationsDoNotScaleWithPackets) {
    const SessionRate base = session_rate(with_packet_bits(espread::net::kDefaultPacketBits));
    const SessionRate halved = session_rate(with_packet_bits(espread::net::kDefaultPacketBits / 2));
    ASSERT_GE(halved.packets_per_window, base.packets_per_window * 3 / 2)
        << "halving packet_bits should nearly double packets per window";
    EXPECT_LE(halved.allocs_per_window, base.allocs_per_window + 6)
        << base.packets_per_window << " -> " << halved.packets_per_window
        << " packets/window raised allocations/window from "
        << base.allocs_per_window << " to " << halved.allocs_per_window;
}

espread::proto::SessionConfig recovering_mjpeg(std::size_t ldus_per_window) {
    espread::proto::SessionConfig cfg;
    cfg.stream.kind = espread::proto::StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = ldus_per_window;
    cfg.recovery.enabled = true;
    // One bound, so one plan: plan builds for newly seen bounds cost more
    // at larger n and would hide what the packet path allocates.
    cfg.pinned_bound = 4;
    return cfg;
}

// Under the recovery plane the sender keeps every sent frame's wire
// material for NACK-driven resends, as a header and the frame's size: no
// per-frame heap state.  Doubling the frames per window (16 -> 32 MJPEG
// LDUs) may raise allocations per window by at most a small constant.
// Measured 5 -> 5 allocations/window; with a fragment-size list per sent
// frame it measured 21 -> 37.
TEST(Alloc, RecoverySessionAllocationsDoNotScaleWithFrames) {
    const SessionRate base = session_rate(recovering_mjpeg(16));
    const SessionRate doubled = session_rate(recovering_mjpeg(32));
    ASSERT_GE(doubled.packets_per_window, base.packets_per_window * 3 / 2)
        << "doubling the LDUs per window should nearly double the packets";
    EXPECT_LE(doubled.allocs_per_window, base.allocs_per_window + 4)
        << "16 -> 32 frames/window raised allocations/window from "
        << base.allocs_per_window << " to " << doubled.allocs_per_window;
}

// The coded path allocates nothing per repair once warm: the decoder's
// symbol ring and row pool and the Session's source ring are reused.
// Raising the overhead from 2/10 to 5/10 multiplies the repairs per window
// (13 -> 33) but may add at most a small constant of allocations per
// window.  Measured 3 -> 4 allocations/window (a std::map/std::deque
// decoder measured 62 -> 76).
TEST(Alloc, CodedSessionAllocationsDoNotScaleWithRepairs) {
    const SessionRate light = session_rate(coded(2));
    const SessionRate heavy = session_rate(coded(5));
    ASSERT_GE(heavy.repairs_per_window, light.repairs_per_window * 2)
        << "5/10 overhead should more than double the repairs per window";
    EXPECT_LE(heavy.allocs_per_window, light.allocs_per_window + 4)
        << light.repairs_per_window << " -> " << heavy.repairs_per_window
        << " repairs/window raised allocations/window from "
        << light.allocs_per_window << " to " << heavy.allocs_per_window;
}

}  // namespace
