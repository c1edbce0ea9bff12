#include "obs/trace.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "exp/json.hpp"
#include "sim/contracts.hpp"

namespace espread::obs {

static_assert(std::size(contracts::kTraceEventNames) ==
              static_cast<std::size_t>(EventType::kRepairShed) + 1);
static_assert(std::size(contracts::kTraceActorNames) ==
              static_cast<std::size_t>(Actor::kGateway) + 1);

const char* event_name(EventType t) noexcept {
    return contracts::name_at(contracts::kTraceEventNames,
                              static_cast<std::size_t>(t), "Unknown");
}

const char* actor_name(Actor a) noexcept {
    return contracts::name_at(contracts::kTraceActorNames,
                              static_cast<std::size_t>(a), "unknown");
}

TraceRecorder::TraceRecorder(std::size_t capacity) : ring_(capacity) {
    if (capacity == 0) {
        throw std::invalid_argument("TraceRecorder: capacity must be positive");
    }
}

void TraceRecorder::record(const TraceEvent& e) {
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size()) {
        ++count_;
    } else {
        ++evicted_;
    }
}

std::vector<TraceEvent> TraceRecorder::events() const {
    std::vector<TraceEvent> out;
    out.reserve(count_);
    // Oldest retained event sits at head_ once the ring has wrapped.
    const std::size_t start = count_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < count_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

void TraceRecorder::clear() noexcept {
    head_ = 0;
    count_ = 0;
    evicted_ = 0;
}

std::string chrome_trace_json(std::vector<TraceEvent> events) {
    // Stable sort by simulated time: emission order can interleave tracks
    // (the server schedules a whole window's departures ahead of the clock
    // while feedback arrives at real event time), but the exported file
    // must read as one merged timeline — and monotone per track.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.time < b.time;
                     });

    exp::JsonWriter j;
    j.begin_object();
    j.key("displayTimeUnit").value("ms");
    j.key("traceEvents").begin_array();

    constexpr Actor kActors[] = {Actor::kServer, Actor::kDataChannel,
                                 Actor::kFeedbackChannel, Actor::kClient,
                                 Actor::kGateway};
    j.begin_object();
    j.key("name").value("process_name");
    j.key("ph").value("M");
    j.key("pid").value(std::uint64_t{1});
    j.key("args").begin_object().key("name").value("espread session").end_object();
    j.end_object();
    for (const Actor a : kActors) {
        j.begin_object();
        j.key("name").value("thread_name");
        j.key("ph").value("M");
        j.key("pid").value(std::uint64_t{1});
        j.key("tid").value(static_cast<std::uint64_t>(a) + 1);
        j.key("args").begin_object().key("name").value(actor_name(a)).end_object();
        j.end_object();
    }

    for (const TraceEvent& e : events) {
        j.begin_object();
        j.key("name").value(event_name(e.type));
        j.key("ph").value("i");   // instant event
        j.key("s").value("t");    // thread-scoped
        j.key("pid").value(std::uint64_t{1});
        j.key("tid").value(static_cast<std::uint64_t>(e.actor) + 1);
        // Chrome trace timestamps are microseconds; SimTime is nanoseconds.
        j.key("ts").value(static_cast<double>(e.time) / 1e3);
        j.key("args").begin_object();
        j.key("window").value(static_cast<std::uint64_t>(e.window));
        j.key("seq").value(e.seq);
        j.key("arg").value(static_cast<std::int64_t>(e.arg));
        j.key("v0").value(e.v0);
        j.key("v1").value(e.v1);
        j.end_object();
        j.end_object();
    }
    j.end_array();
    j.end_object();
    return j.str();
}

void write_chrome_trace_file(const std::string& path,
                             std::vector<TraceEvent> events) {
    exp::write_text_file(path, chrome_trace_json(std::move(events)));
}

}  // namespace espread::obs
