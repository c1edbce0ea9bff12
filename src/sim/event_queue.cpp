#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace espread::sim {

void EventQueue::grow() {
    // heap_ and free_slots_ never hold more entries than slab_ has slots,
    // so reserving both to the slab's capacity here means neither the
    // heap push in schedule_at nor the free-list push in step() can
    // allocate.  A bad_alloc leaves the queue as it was.
    slab_.emplace_back();
    try {
        heap_.reserve(slab_.capacity());
        free_slots_.reserve(slab_.capacity());
    } catch (...) {
        slab_.pop_back();
        throw;
    }
    free_slots_.push_back(slab_.size() - 1);
}

void EventQueue::schedule_at(SimTime when, Callback cb) {
    if (!cb) throw std::invalid_argument("EventQueue: null callback");
    if (free_slots_.empty()) grow();
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(cb);
    heap_.push_back(Entry{std::max(when, now_), next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + std::max<SimTime>(delay, 0), std::move(cb));
}

bool EventQueue::step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    // The callback leaves its slot, and the slot is freed, before it
    // runs: it may schedule more events, reusing the slot or growing
    // (and so reallocating) the slab.
    Callback cb = std::move(slab_[e.slot]);
    slab_[e.slot] = nullptr;
    free_slots_.push_back(e.slot);
    now_ = e.when;
    cb();
    return true;
}

void EventQueue::run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().when <= deadline) step();
    now_ = std::max(now_, deadline);
}

void EventQueue::run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (step()) {
        if (++n >= max_events && !heap_.empty()) {
            throw std::runtime_error("EventQueue::run: event budget exhausted (livelock?)");
        }
    }
}

}  // namespace espread::sim
