// Allocation accounting for the hot paths.
//
// A counting global operator new pins two properties: the engine's
// single-shard window step performs ZERO heap allocations once warm
// (the SoA arenas and shard scratch absorb everything), and the
// per-object Session window loop stays within a fixed allocation budget
// per window that does not grow with the packets per window.
//
// Not registered under the sanitizers: ASan/TSan interpose the
// allocator and the replacement operators below would fight them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/engine.hpp"
#include "net/fragment.hpp"
#include "protocol/session.hpp"

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

/// Allocations per window of the Session loop and data packets per
/// window, measured as the difference between a long and a short run so
/// construction and the first window's growth cancel out.
struct SessionRate {
    std::uint64_t allocs_per_window = 0;
    std::size_t packets_per_window = 0;
};

SessionRate session_rate(std::size_t packet_bits) {
    constexpr std::size_t kShort = 10;
    constexpr std::size_t kLong = 40;
    struct Run {
        std::uint64_t allocs;
        std::size_t packets;
    };
    const auto run_counted = [packet_bits](std::size_t windows) {
        espread::proto::SessionConfig cfg;
        cfg.num_windows = windows;
        cfg.seed = 3;
        cfg.packet_bits = packet_bits;
        AllocCounter counter;
        counter.start();
        const auto result = espread::proto::run_session(cfg);
        const std::uint64_t allocs = counter.stop();
        EXPECT_EQ(result.windows.size(), windows);
        return Run{allocs, result.data_channel.sent};
    };
    const Run short_run = run_counted(kShort);
    const Run long_run = run_counted(kLong);
    EXPECT_GT(long_run.allocs, short_run.allocs);
    EXPECT_GT(long_run.packets, short_run.packets);
    return SessionRate{(long_run.allocs - short_run.allocs) / (kLong - kShort),
                       (long_run.packets - short_run.packets) / (kLong - kShort)};
}

// The per-object Session keeps a bounded allocation budget per window.
// The default config never runs the wire codec (no corruption), and the
// packet path (event heap, in-flight slab, receiver frame masks) is
// allocation-free once warm, so what is left is per-window state: the
// receiver's frame table and window-map node, trailer and ACK vectors,
// the window outcome and report, and a critical frame's retransmission
// record.  Measured at 32 allocations/window; the ratchet allows ~30%
// headroom, so small legitimate changes fit but a per-packet allocation
// (~77 data packets per window) fails.
TEST(Alloc, SessionWindowLoopStaysWithinBudget) {
    const SessionRate rate = session_rate(espread::net::kDefaultPacketBits);
    EXPECT_LE(rate.allocs_per_window, 42u)
        << "session window loop now allocates " << rate.allocs_per_window
        << " times per window";
}

// No allocation per packet: halving the packet size nearly doubles the
// packets per window (77 -> 136) and may raise allocations per window by
// at most a small constant (measured +2: retransmission records hold
// more fragments; nothing scales with the packet count).
TEST(Alloc, SessionAllocationsDoNotScaleWithPackets) {
    const SessionRate base = session_rate(espread::net::kDefaultPacketBits);
    const SessionRate halved = session_rate(espread::net::kDefaultPacketBits / 2);
    ASSERT_GE(halved.packets_per_window, base.packets_per_window * 3 / 2)
        << "halving packet_bits should nearly double packets per window";
    EXPECT_LE(halved.allocs_per_window, base.allocs_per_window + 6)
        << base.packets_per_window << " -> " << halved.packets_per_window
        << " packets/window raised allocations/window from "
        << base.allocs_per_window << " to " << halved.allocs_per_window;
}

}  // namespace
