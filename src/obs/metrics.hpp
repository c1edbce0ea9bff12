// Session metrics registry (observability layer).
//
// One counter slot per name in contracts::kSessionMetricNames and one
// obs::Histogram slot per name in contracts::kSessionHistogramNames; a
// name is present (listed and serialized) once written.  Writers name
// slots with Metric / HistogramMetric, resolved at compile time against
// their own table, so a misspelt name — or a counter name used as a
// histogram, and the reverse — does not build.  Both tables are sorted,
// so slot order is key order: merging per-trial registries in trial order
// (exp::MonteCarloRunner) gives the same bytes for any thread count.
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

#include "obs/histogram.hpp"
#include "sim/contracts.hpp"

namespace espread::exp {
class JsonWriter;
}

namespace espread::obs {

inline constexpr std::size_t kMetricSlots =
    std::size(contracts::kSessionMetricNames);
inline constexpr std::size_t kHistogramSlots =
    std::size(contracts::kSessionHistogramNames);

static_assert(std::ranges::adjacent_find(contracts::kSessionMetricNames,
                                         std::ranges::greater_equal{}) ==
                  std::end(contracts::kSessionMetricNames),
              "kSessionMetricNames must be sorted and unique: slot order is "
              "the JSON key order");
static_assert(std::ranges::adjacent_find(contracts::kSessionHistogramNames,
                                         std::ranges::greater_equal{}) ==
                  std::end(contracts::kSessionHistogramNames),
              "kSessionHistogramNames must be sorted and unique: slot order "
              "is the JSON key order");

/// A registered counter's slot, looked up at compile time.
struct Metric {
    consteval Metric(const char* name)
        : slot(contracts::index_of(contracts::kSessionMetricNames, name)) {
        if (slot == kMetricSlots) {
            throw "counter name missing from contracts::kSessionMetricNames";
        }
    }
    std::size_t slot;
};

/// A registered histogram's slot, looked up at compile time.
struct HistogramMetric {
    consteval HistogramMetric(const char* name)
        : slot(contracts::index_of(contracts::kSessionHistogramNames, name)) {
        if (slot == kHistogramSlots) {
            throw "histogram name missing from contracts::kSessionHistogramNames";
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
    Histogram& hist(HistogramMetric m) noexcept {
        binned_.set(m.slot);
        return hists_[m.slot];
    }

    /// Current counter value, present or not.
    std::uint64_t operator[](Metric m) const noexcept { return counts_[m.slot]; }

    /// Value of a counter by runtime name; 0 if it is absent or unregistered.
    std::uint64_t counter(std::string_view name) const noexcept;

    /// Histogram by runtime name; nullptr if it is absent or unregistered.
    const Histogram* find_histogram(std::string_view name) const noexcept;

    /// Adds every present counter and histogram of `other` into this one.
    void merge(const MetricsRegistry& other);

    bool empty() const noexcept { return counted_.none() && binned_.none(); }

    /// Present counters and histograms, in key order.
    std::vector<std::pair<std::string_view, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string_view, const Histogram*>> histograms() const;

private:
    std::array<std::uint64_t, kMetricSlots> counts_{};
    std::array<Histogram, kHistogramSlots> hists_;
    std::bitset<kMetricSlots> counted_;
    std::bitset<kHistogramSlots> binned_;
};

/// Appends the registry at the writer's current position:
/// {"counters":{name:value,...},"histograms":{name:{append_histogram},...}}.
void append_metrics(exp::JsonWriter& json, const MetricsRegistry& metrics);

}  // namespace espread::obs
