#include "obs/histogram.hpp"

#include <cmath>

#include "exp/json.hpp"

namespace espread::obs {

std::uint64_t Histogram::quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Nearest-rank: the smallest bucket whose cumulative count reaches
    // ceil(q * total), at least rank 1 so q = 0 reports the minimum.
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
    if (rank == 0) rank = 1;
    if (rank > total_) rank = total_;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        cum += counts_[b];
        if (cum >= rank) return bucket_upper(b);
    }
    return bucket_upper(kBuckets - 1);
}

std::uint64_t Histogram::count_le(std::uint64_t v) const noexcept {
    const std::size_t last = bucket_for(v);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b <= last; ++b) {
        // The bucket containing v counts only when v is its upper bound:
        // whole buckets only, so the result never overstates.
        if (b == last && bucket_upper(b) != v) break;
        cum += counts_[b];
    }
    return cum;
}

std::uint64_t Histogram::max_bucket_value() const noexcept {
    for (std::size_t b = kBuckets; b > 0; --b) {
        if (counts_[b - 1] > 0) return bucket_upper(b - 1);
    }
    return 0;
}

void append_histogram(exp::JsonWriter& json, const Histogram& h) {
    json.begin_object();
    json.key("total").value(h.total());
    json.key("sum").value(h.sum());
    json.key("p50").value(h.quantile(0.50));
    json.key("p90").value(h.quantile(0.90));
    json.key("p99").value(h.quantile(0.99));
    json.key("p999").value(h.quantile(0.999));
    json.key("max").value(h.max_bucket_value());
    // Sparse bucket encoding: [index, count] pairs for non-empty buckets,
    // in index order.  tools/espread_report restores the histogram from
    // exactly these pairs and the sum.
    json.key("buckets").begin_array();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (h.counts()[b] == 0) continue;
        json.begin_array();
        json.value(static_cast<std::uint64_t>(b));
        json.value(h.counts()[b]);
        json.end_array();
    }
    json.end_array();
    json.end_object();
}

}  // namespace espread::obs
