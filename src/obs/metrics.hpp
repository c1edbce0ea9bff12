// Session metrics registry (observability layer).
//
// One slot per name in contracts::kSessionMetricNames, holding a counter
// and a histogram; a name is present (listed and serialized) once written.
// Writers name slots with Metric, resolved at compile time, so a misspelt
// name does not build.  The table is sorted, so slot order is key order:
// merging per-trial registries in trial order (exp::MonteCarloRunner)
// gives the same bytes for any thread count.
#pragma once

#include <algorithm>
#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/stats.hpp"

namespace espread::exp {
class JsonWriter;
}

namespace espread::obs {

inline constexpr std::size_t kMetricSlots =
    std::size(contracts::kSessionMetricNames);

static_assert(std::ranges::adjacent_find(contracts::kSessionMetricNames,
                                         std::ranges::greater_equal{}) ==
                  std::end(contracts::kSessionMetricNames),
              "kSessionMetricNames must be sorted and unique: slot order is "
              "the JSON key order");

/// A registered metric's slot, looked up at compile time.
struct Metric {
    consteval Metric(const char* name)
        : slot(contracts::index_of(contracts::kSessionMetricNames, name)) {
        if (slot == kMetricSlots) {
            throw "metric name missing from contracts::kSessionMetricNames";
        }
    }
    std::size_t slot;
};

/// Flat, table-indexed counters + histograms with deterministic merge.
class MetricsRegistry {
public:
    /// Adds `delta` to the counter and makes it present (also for 0).
    void add(Metric m, std::uint64_t delta = 1) noexcept {
        counts_[m.slot] += delta;
        counted_.set(m.slot);
    }

    /// Makes each counter present without changing its value: a group
    /// counted in flight still reports the counts that stayed at zero.
    void open(std::initializer_list<Metric> ms) noexcept {
        for (const Metric m : ms) counted_.set(m.slot);
    }

    /// The histogram, made present (possibly empty).
    sim::Histogram& hist(Metric m) noexcept {
        binned_.set(m.slot);
        return hists_[m.slot];
    }

    /// Current counter value, present or not.
    std::uint64_t operator[](Metric m) const noexcept { return counts_[m.slot]; }

    /// Value of a counter by runtime name; 0 if it is absent or unregistered.
    std::uint64_t counter(std::string_view name) const noexcept;

    /// Histogram by runtime name; nullptr if it is absent or unregistered.
    const sim::Histogram* find_histogram(std::string_view name) const noexcept;

    /// Adds every present counter and histogram of `other` into this one.
    void merge(const MetricsRegistry& other);

    bool empty() const noexcept { return counted_.none() && binned_.none(); }

    /// Present counters and histograms, in key order.
    std::vector<std::pair<std::string_view, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string_view, const sim::Histogram*>> histograms() const;

private:
    std::array<std::uint64_t, kMetricSlots> counts_{};
    std::array<sim::Histogram, kMetricSlots> hists_;
    std::bitset<kMetricSlots> counted_;
    std::bitset<kMetricSlots> binned_;
};

/// Appends the registry at the writer's current position:
/// {"counters":{name:value,...},
///  "histograms":{name:{"total":n,"mean":m,"bins":{value:count,...}},...}}.
void append_metrics(exp::JsonWriter& json, const MetricsRegistry& metrics);

}  // namespace espread::obs
