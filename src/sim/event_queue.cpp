#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace espread::sim {

void EventQueue::schedule_at(SimTime when, Callback cb) {
    if (!cb) throw std::invalid_argument("EventQueue: null callback");
    heap_.push_back(Entry{std::max(when, now_), next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + std::max<SimTime>(delay, 0), std::move(cb));
}

bool EventQueue::step() {
    if (heap_.empty()) return false;
    // pop_heap rotates the earliest entry to the back, where it can be
    // moved out: the callback is never copied.  It must leave the vector
    // before it runs, because it may schedule (and so reallocate) more.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.when;
    e.cb();
    return true;
}

void EventQueue::run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().when <= deadline) step();
    now_ = std::max(now_, deadline);
}

void EventQueue::run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (step()) {
        if (++n >= max_events) {
            throw std::runtime_error("EventQueue::run: event budget exhausted (livelock?)");
        }
    }
}

}  // namespace espread::sim
