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

std::size_t EventQueue::pending() const noexcept {
    std::size_t n = heap_.size();
    for (const Feed& f : feeds_) n += f.depth;
    return n;
}

std::size_t EventQueue::add_feed(Callback run_head) {
    if (!run_head) throw std::invalid_argument("EventQueue: null feed");
    feeds_.push_back(Feed{Entry{0, 0, std::move(run_head)}, 0});
    return feeds_.size() - 1;
}

const EventQueue::Entry* EventQueue::next(std::size_t& feed) const noexcept {
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    feed = feeds_.size();
    // A session has two feeds: a scan beats any index over them.
    for (std::size_t i = 0; i < feeds_.size(); ++i) {
        if (feeds_[i].depth != 0 && (!best || Later{}(*best, feeds_[i].head))) {
            best = &feeds_[i].head;
            feed = i;
        }
    }
    return best;
}

bool EventQueue::step() {
    std::size_t feed = 0;
    const Entry* head = next(feed);
    if (head == nullptr) return false;
    now_ = head->when;
    if (feed < feeds_.size()) {
        head->cb();
        return true;
    }
    // pop_heap rotates the earliest entry to the back, where it can be
    // moved out: the callback is never copied.  It must leave the vector
    // before it runs, because it may schedule (and so reallocate) more.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    e.cb();
    return true;
}

void EventQueue::run_until(SimTime deadline) {
    std::size_t feed = 0;
    for (const Entry* e = next(feed); e && e->when <= deadline; e = next(feed)) step();
    now_ = std::max(now_, deadline);
}

void EventQueue::run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (step()) {
        if (++n >= max_events && !empty()) {
            throw std::runtime_error("EventQueue::run: event budget exhausted (livelock?)");
        }
    }
}

}  // namespace espread::sim
