// The histogram: fixed-size, log-bucketed, with an exact sum.
//
// The paper's perception argument — and the distortion-variance framing of
// the related streaming-code work — is that *tail* behavior decides
// perceived quality, so every distribution the system reports (per-window
// CLF, loss-run lengths, Eq. 1 bounds, repair delays, the fleet telemetry
// signals) lands in one of these and is read back as p50/p90/p99/p999,
// never as a mean alone.
//
// Layout: values 0..31 get one exact bucket each; larger values share
// four sub-buckets per power-of-two octave (HdrHistogram-style), so the
// relative error of a reported quantile is bounded by 25% while the
// bucket count stays fixed at compile time.  CLF, bound and loss-run
// values in a 24-LDU window all fall inside the exact range, so their
// quantiles are exact.  Beside the buckets the histogram keeps the exact
// sum of the recorded values, so mean() and "sum of lengths == dropped"
// stay exact however coarse the bucket holding a value is.
//
// Determinism contract: recording is pure integer arithmetic (no floats on
// the write path), counts and the sum are uint64, and merge() is
// element-wise addition — commutative and associative — so folding
// per-shard or per-trial histograms in order yields byte-identical state
// for any grouping.  quantile() derives its rank with one double multiply
// from the folded integers, identically on every fold grouping.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace espread::exp {
class JsonWriter;
}

namespace espread::obs {

/// Fixed-size histogram over non-negative integer observations with
/// quantile extraction and an exact sum.  No heap: safe to embed in the
/// cache-line-padded per-shard slabs and copy by value.
class Histogram {
public:
    /// Values below this get one exact bucket each.
    static constexpr std::uint64_t kLinearMax = 32;
    /// First octave covered by log buckets: [32, 64).
    static constexpr unsigned kFirstOctave = 5;
    /// Sub-buckets per octave above the linear range.
    static constexpr std::size_t kSubBuckets = 4;
    /// Octaves 5..63 cover every uint64 value.
    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>(kLinearMax) +
        (64 - kFirstOctave) * kSubBuckets;

    /// Bucket index of `v` (total order preserved: v1 <= v2 implies
    /// bucket_for(v1) <= bucket_for(v2)).
    static constexpr std::size_t bucket_for(std::uint64_t v) noexcept {
        if (v < kLinearMax) return static_cast<std::size_t>(v);
        const unsigned octave = static_cast<unsigned>(std::bit_width(v)) - 1U;
        const std::size_t sub =
            static_cast<std::size_t>((v >> (octave - 2U)) & 3U);
        return static_cast<std::size_t>(kLinearMax) +
               (octave - kFirstOctave) * kSubBuckets + sub;
    }

    /// Smallest value mapping to bucket `b`.
    static constexpr std::uint64_t bucket_lower(std::size_t b) noexcept {
        if (b < kLinearMax) return b;
        const std::size_t rel = b - static_cast<std::size_t>(kLinearMax);
        const unsigned octave =
            kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
        const std::uint64_t sub = rel % kSubBuckets;
        return (std::uint64_t{1} << octave) + (sub << (octave - 2U));
    }

    /// Largest value mapping to bucket `b` (the value quantile() reports,
    /// so reported quantiles never understate the true quantile).
    static constexpr std::uint64_t bucket_upper(std::size_t b) noexcept {
        if (b < kLinearMax) return b;
        const std::size_t rel = b - static_cast<std::size_t>(kLinearMax);
        const unsigned octave =
            kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
        return bucket_lower(b) + (std::uint64_t{1} << (octave - 2U)) - 1;
    }

    /// Records one observation.  Hot path: one bucket index + three adds.
    void record(std::uint64_t v) noexcept {
        ++counts_[bucket_for(v)];
        ++total_;
        sum_ += v;
    }

    /// Element-wise addition: merge(a, b) == recording a's and b's
    /// observations into one histogram (merge == concat, pinned by
    /// test_telemetry).
    void merge(const Histogram& other) noexcept {
        for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
        total_ += other.total_;
        sum_ += other.sum_;
    }

    /// Bucket-wise difference `now - prev`; `prev` must be an earlier
    /// state of the same cumulative histogram (counts monotone).
    static Histogram delta(const Histogram& now, const Histogram& prev) noexcept {
        Histogram d;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            d.counts_[b] = now.counts_[b] - prev.counts_[b];
        }
        d.total_ = now.total_ - prev.total_;
        d.sum_ = now.sum_ - prev.sum_;
        return d;
    }

    std::uint64_t total() const noexcept { return total_; }
    bool empty() const noexcept { return total_ == 0; }

    /// Exact sum of the recorded values (modulo 2^64).
    std::uint64_t sum() const noexcept { return sum_; }

    /// sum() / total(); 0 if empty.
    double mean() const noexcept {
        return total_ == 0 ? 0.0
                           : static_cast<double>(sum_) / static_cast<double>(total_);
    }

    /// Nearest-rank quantile, reported as the containing bucket's upper
    /// bound (exact for values < kLinearMax).  q outside [0, 1] is
    /// clamped; an empty histogram reports 0.  Monotone in q.
    std::uint64_t quantile(double q) const noexcept;

    /// Observations with value <= v, counting only whole buckets: exact
    /// when v < kLinearMax or v is a bucket upper bound, otherwise a
    /// conservative undercount (partial buckets excluded).  This is the
    /// SLO evaluator's "good event" count.
    std::uint64_t count_le(std::uint64_t v) const noexcept;

    /// Upper bound of the highest non-empty bucket (0 when empty).
    std::uint64_t max_bucket_value() const noexcept;

    const std::array<std::uint64_t, kBuckets>& counts() const noexcept {
        return counts_;
    }

    /// Restores one bucket from a serialized (index, count) pair; out of
    /// range indices are ignored.  With restore_sum, rebuilds what
    /// append_histogram wrote (the report tool's JSON reader).
    void restore_bucket(std::size_t bucket, std::uint64_t count) noexcept {
        if (bucket >= kBuckets || count == 0) return;
        counts_[bucket] += count;
        total_ += count;
    }

    /// Restores the serialized exact sum.
    void restore_sum(std::uint64_t sum) noexcept { sum_ = sum; }

    bool operator==(const Histogram&) const noexcept = default;

private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/// Appends `h` at the writer's current position — the one histogram
/// encoding every JSON output uses:
/// {"total":n,"sum":s,"p50":..,"p90":..,"p99":..,"p999":..,"max":..,
///  "buckets":[[index,count],...]}, non-empty buckets in index order.
void append_histogram(exp::JsonWriter& json, const Histogram& h);

}  // namespace espread::obs
