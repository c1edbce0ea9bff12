#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace {

using espread::sim::EventQueue;
using espread::sim::Rng;
using espread::sim::from_millis;
using espread::sim::from_seconds;
using espread::sim::SimTime;
using espread::sim::to_seconds;

TEST(SimTimeConversions, RoundTrip) {
    EXPECT_EQ(from_seconds(1.0), 1'000'000'000);
    EXPECT_EQ(from_millis(23.0), 23'000'000);
    EXPECT_DOUBLE_EQ(to_seconds(from_seconds(0.75)), 0.75);
}

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(30, [&] { order.push_back(3); });
    q.schedule_at(10, [&] { order.push_back(1); });
    q.schedule_at(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoTieBreakAtSameInstant) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        q.schedule_at(100, [&order, i] { order.push_back(i); });
    }
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PastSchedulingIsClampedNotDropped) {
    EventQueue q;
    bool ran = false;
    q.schedule_at(100, [&] {
        q.schedule_at(10, [&] { ran = true; });  // "in the past"
    });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
    EventQueue q;
    std::vector<SimTime> fired;
    for (SimTime t : {10, 20, 30, 40}) {
        q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
    }
    q.run_until(25);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
    EXPECT_EQ(q.now(), 25);
    EXPECT_EQ(q.pending(), 2u);
    q.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
    EventQueue q;
    EXPECT_FALSE(q.step());
    q.schedule_at(1, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, NullCallbackThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_at(1, nullptr), std::invalid_argument);
}

TEST(EventQueue, RunawayLoopHitsBudget) {
    EventQueue q;
    // Each event schedules the next forever.
    std::function<void()> tick = [&] { q.schedule_at(q.now() + 1, tick); };
    q.schedule_at(0, tick);
    EXPECT_THROW(q.run(1000), std::runtime_error);
    EXPECT_EQ(q.now(), 999) << "the budget ran exactly 1000 events";
    EXPECT_EQ(q.pending(), 1u);
}

// The budget is spent only when events remain after it: N events that
// drain the queue fit a budget of N.
TEST(EventQueue, BudgetEqualToEventCountDrainsWithoutThrowing) {
    EventQueue q;
    int ran = 0;
    for (SimTime t : {1, 2, 3}) q.schedule_at(t, [&ran] { ++ran; });
    EXPECT_NO_THROW(q.run(3));
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(q.pending(), 0u);
}

/// Callback that records its id when run and counts every copy made of
/// it.  Its user-defined copy constructor keeps it out of std::function's
/// inline buffer, so any copy the queue makes of a callback shows up.
struct CopyCounting {
    std::size_t id;
    std::vector<std::size_t>* order;
    std::size_t* copies;

    CopyCounting(std::size_t i, std::vector<std::size_t>* o, std::size_t* c)
        : id(i), order(o), copies(c) {}
    CopyCounting(const CopyCounting& other)
        : id(other.id), order(other.order), copies(other.copies) {
        ++*copies;
    }
    CopyCounting(CopyCounting&&) noexcept = default;
    CopyCounting& operator=(const CopyCounting&) = delete;
    CopyCounting& operator=(CopyCounting&&) = delete;

    void operator()() const { order->push_back(id); }
};

// The heap moves entries in and out: no callback is ever copied, and the
// (time, FIFO) order equals a stable sort of the schedule by time.
TEST(EventQueue, HeapNeverCopiesCallbacksAndKeepsFifoTieBreak) {
    constexpr std::size_t kEvents = 1000;
    Rng rng{42};
    EventQueue q;
    std::vector<std::size_t> order;
    std::size_t copies = 0;
    std::vector<std::pair<SimTime, std::size_t>> schedule;
    for (std::size_t id = 0; id < kEvents; ++id) {
        // 64 distinct instants for 1000 events: ~16 ties per instant.
        const auto when = static_cast<SimTime>(rng.uniform_int(0, 63));
        schedule.emplace_back(when, id);
        q.schedule_at(when, CopyCounting{id, &order, &copies});
    }
    EXPECT_EQ(copies, 0u) << "schedule_at copied a callback";

    for (std::size_t i = 0; i < kEvents / 4; ++i) ASSERT_TRUE(q.step());
    EXPECT_EQ(copies, 0u) << "step copied a callback";
    q.run();
    EXPECT_EQ(copies, 0u) << "run copied a callback";

    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::size_t> expected;
    for (const auto& [when, id] : schedule) expected.push_back(id);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(q.now(), schedule.back().first);
}

/// A feed as net::Channel keeps one: its events sorted by (when, seq)
/// with seq from stamp(), the earliest armed on the queue.
class SortedFeed {
public:
    explicit SortedFeed(EventQueue& q) : q_(q), id_(q.add_feed([this] { run_head(); })) {}
    SortedFeed(const SortedFeed&) = delete;
    SortedFeed& operator=(const SortedFeed&) = delete;

    /// Files `fn` at max(when, now()), after every event with an equal
    /// or earlier time.
    void push(SimTime when, std::function<void()> fn) {
        Event e{std::max(when, q_.now()), q_.stamp(), std::move(fn)};
        auto at = events_.end();
        while (at != events_.begin() && std::prev(at)->when > e.when) --at;
        events_.insert(at, std::move(e));
        arm();
    }
    std::size_t size() const noexcept { return events_.size(); }

private:
    struct Event {
        SimTime when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    void arm() {
        if (events_.empty()) {
            q_.disarm(id_);
        } else {
            q_.arm(id_, events_.front().when, events_.front().seq, events_.size());
        }
    }
    /// Pops and re-arms before running: the event may push onto this feed.
    void run_head() {
        Event e = std::move(events_.front());
        events_.pop_front();
        arm();
        e.fn();
    }

    EventQueue& q_;
    std::size_t id_;
    std::deque<Event> events_;
};

// Feed and heap events at equal times run in the order they were
// scheduled: stamp() and schedule_at draw from one FIFO sequence.
TEST(EventQueue, FeedAndHeapShareTiesInStampOrder) {
    EventQueue q;
    SortedFeed feed{q};
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
        const SimTime when = 10 * (i % 3);
        const auto log = [&order, i] { order.push_back(i); };
        if (i % 2 == 0) {
            feed.push(when, log);
        } else {
            q.schedule_at(when, log);
        }
    }
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11}));
    EXPECT_EQ(feed.size(), 0u);
}

TEST(EventQueue, RunUntilStopsAtFeedHead) {
    EventQueue q;
    SortedFeed feed{q};
    std::vector<SimTime> fired;
    const auto log = [&fired, &q] { fired.push_back(q.now()); };
    feed.push(30, log);
    q.schedule_at(10, log);
    q.run_until(20);
    EXPECT_EQ(fired, (std::vector<SimTime>{10}));
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.pending(), 1u);
    q.run_until(30);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 30}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptySeesArmedFeeds) {
    EventQueue q;
    SortedFeed feed{q};
    EXPECT_TRUE(q.empty());
    int ran = 0;
    feed.push(5, [&ran] { ++ran; });
    feed.push(5, [&ran] { ++ran; });
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.pending(), 2u);
    ASSERT_TRUE(q.step());
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(ran, 2);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

// A feed event that schedules heap events and files more events on its
// own feed: the new events keep the (when, seq) order with the rest.
TEST(EventQueue, FeedCallbackSchedulesHeapAndRearmsItsFeed) {
    EventQueue q;
    SortedFeed feed{q};
    std::vector<std::string> order;
    const auto log = [&order](std::string s) { return [&order, s] { order.push_back(s); }; };
    feed.push(10, [&] {
        order.push_back("feed@10");
        q.schedule_at(10, log("heap@10"));
        feed.push(10, log("feed@10b"));
        feed.push(15, log("feed@15"));
        q.schedule_at(12, log("heap@12"));
    });
    feed.push(20, log("feed@20"));
    q.schedule_at(15, log("heap@15"));  // stamped before feed@15
    q.run();
    EXPECT_EQ(order, (std::vector<std::string>{"feed@10", "heap@10", "feed@10b", "heap@12",
                                               "heap@15", "feed@15", "feed@20"}));
    EXPECT_EQ(q.now(), 20);
}

/// Randomized workload for the heap and two feeds: callbacks schedule
/// more events while earlier ones run.  Every schedule is recorded as
/// (clamped when, schedule order) for the reference model.  Each callback
/// reads its capture only after it has scheduled, so one run in place
/// while the heap or its feed reallocates reads freed memory (which the
/// sanitizer build reports).
struct Interleaving {
    static constexpr std::size_t kEvents = 5000;

    EventQueue q;
    SortedFeed feeds[2] = {SortedFeed{q}, SortedFeed{q}};
    Rng rng{2024};
    std::vector<std::pair<SimTime, std::size_t>> scheduled;
    std::vector<std::size_t> order;

    void schedule(SimTime when) {
        const std::size_t id = scheduled.size();
        scheduled.emplace_back(std::max(when, q.now()), id);
        if (id % 5 >= 3) {
            // Two in five events go through a feed, alternating.
            feeds[id % 5 - 3].push(when, [this, id] {
                spawn();
                order.push_back(id);
            });
        } else if (id % 2 == 0) {
            q.schedule_at(when, [this, id] {
                spawn();
                order.push_back(id);
            });
        } else {
            // Too large for std::function's inline buffer: this callback
            // lives on the heap and its slot holds only a pointer.
            std::array<std::size_t, 6> pad{};
            pad.fill(id);
            q.schedule_at(when, [this, pad] {
                spawn();
                order.push_back(pad[5]);
            });
        }
    }

    /// Offsets -8..24: the negative ones land "in the past" and are
    /// clamped to now(); zero lands at now() itself.
    SimTime offset() { return static_cast<SimTime>(rng.uniform_int(0, 32)) - 8; }

    void spawn() {
        if (scheduled.size() < kEvents && rng.bernoulli(0.5)) {
            schedule(q.now() + offset());
        }
    }
};

// A key that a callback (or the test loop) schedules is never earlier than
// the one running, so the run order is the whole schedule sorted by
// (clamped when, schedule order), whichever source held each event.
TEST(EventQueue, SlotReuseKeepsReferenceOrderUnderInterleaving) {
    Interleaving s;
    std::size_t peak = 0;
    while (s.scheduled.size() < Interleaving::kEvents) {
        for (auto n = s.rng.uniform_int(1, 3); n > 0; --n) {
            s.schedule(s.q.now() + s.offset());
        }
        peak = std::max(peak, s.q.pending());
        for (auto n = s.rng.uniform_int(0, 8); n > 0 && s.q.step(); --n) {
        }
    }
    s.q.run();

    std::vector<std::pair<SimTime, std::size_t>> expected = s.scheduled;
    std::sort(expected.begin(), expected.end());
    std::vector<std::size_t> expected_order;
    for (const auto& [when, id] : expected) expected_order.push_back(id);
    EXPECT_EQ(s.order, expected_order);
    EXPECT_EQ(s.q.now(), expected.back().first);
    EXPECT_TRUE(s.q.empty());
    // Far fewer events are pending at once than run.
    EXPECT_LT(peak, Interleaving::kEvents / 10) << "peak pending " << peak;
}

}  // namespace
