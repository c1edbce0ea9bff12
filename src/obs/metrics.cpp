#include "obs/metrics.hpp"

#include "exp/json.hpp"

namespace espread::obs {

std::uint64_t MetricsRegistry::counter(std::string_view name) const noexcept {
    const std::size_t i = contracts::index_of(contracts::kSessionMetricNames, name);
    return i < kMetricSlots ? counts_[i] : 0;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const noexcept {
    const std::size_t i =
        contracts::index_of(contracts::kSessionHistogramNames, name);
    return i < kHistogramSlots && binned_[i] ? &hists_[i] : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
    // An absent slot holds 0 and an empty histogram, so adding it is a no-op.
    for (std::size_t i = 0; i < kMetricSlots; ++i) counts_[i] += other.counts_[i];
    for (std::size_t i = 0; i < kHistogramSlots; ++i) hists_[i].merge(other.hists_[i]);
    counted_ |= other.counted_;
    binned_ |= other.binned_;
}

std::vector<std::pair<std::string_view, std::uint64_t>> MetricsRegistry::counters() const {
    std::vector<std::pair<std::string_view, std::uint64_t>> out;
    for (std::size_t i = 0; i < kMetricSlots; ++i) {
        if (counted_[i]) out.emplace_back(contracts::kSessionMetricNames[i], counts_[i]);
    }
    return out;
}

std::vector<std::pair<std::string_view, const Histogram*>>
MetricsRegistry::histograms() const {
    std::vector<std::pair<std::string_view, const Histogram*>> out;
    for (std::size_t i = 0; i < kHistogramSlots; ++i) {
        if (binned_[i]) out.emplace_back(contracts::kSessionHistogramNames[i], &hists_[i]);
    }
    return out;
}

void append_metrics(exp::JsonWriter& json, const MetricsRegistry& metrics) {
    json.begin_object();
    json.key("counters").begin_object();
    for (const auto& [name, value] : metrics.counters()) {
        json.key(name).value(value);
    }
    json.end_object();
    json.key("histograms").begin_object();
    for (const auto& [name, hist] : metrics.histograms()) {
        json.key(name);
        append_histogram(json, *hist);
    }
    json.end_object();
    json.end_object();
}

}  // namespace espread::obs
