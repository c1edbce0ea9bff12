// Streaming statistics used throughout the benchmarks and the protocol's
// per-window CLF reporting (mean / deviation rows of Figure 8 et al.).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace espread::sim {

/// Single-pass running mean / variance / extrema (Welford's algorithm).
///
/// `deviation()` reports the *population* standard deviation, matching how
/// the paper reports "Dev" over its 100 buffer windows.
class RunningStats {
public:
    void add(double x) noexcept;

    /// Merges another accumulator into this one (parallel Welford merge).
    void merge(const RunningStats& other) noexcept;

    std::size_t count() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }

    /// Mean of the samples; 0 if empty.
    double mean() const noexcept { return mean_; }

    /// Population variance; 0 if fewer than 2 samples.
    double variance() const noexcept;

    /// Population standard deviation.
    double deviation() const noexcept;

    /// Unbiased (n-1) sample variance; 0 if fewer than 2 samples.
    double sample_variance() const noexcept;

    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }
    double sum() const noexcept { return mean_ * static_cast<double>(count_); }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Ordered series of (x, y) observations, e.g. CLF per buffer-window number.
/// Keeps insertion order; provides summary statistics over the y values.
class TimeSeries {
public:
    void add(double x, double y);

    std::size_t size() const noexcept { return xs_.size(); }
    bool empty() const noexcept { return xs_.empty(); }
    const std::vector<double>& xs() const noexcept { return xs_; }
    const std::vector<double>& ys() const noexcept { return ys_; }

    RunningStats y_stats() const;

private:
    std::vector<double> xs_;
    std::vector<double> ys_;
};

/// Counts of integer-valued observations (e.g. burst-length histogram).
class Histogram {
public:
    void add(std::int64_t value);

    /// Adds `count` observations of `value` at once (bulk merge).
    void add(std::int64_t value, std::size_t count);

    /// Merges another histogram's bins into this one.
    void merge(const Histogram& other);

    std::size_t total() const noexcept { return total_; }
    std::size_t count(std::int64_t value) const noexcept;
    /// Fraction of observations equal to `value`; 0 if no observations.
    double fraction(std::int64_t value) const noexcept;
    std::int64_t min() const noexcept;
    std::int64_t max() const noexcept;
    double mean() const noexcept;
    /// Nearest-rank quantile: the smallest binned value whose cumulative
    /// count reaches ceil(q * total).  Exact — bins hold exact values,
    /// not ranges.  q outside [0, 1] is clamped; 0 if no observations.
    /// Monotone in q; quantile(0) == min(), quantile(1) == max().
    std::int64_t quantile(double q) const noexcept;
    const std::map<std::int64_t, std::size_t>& bins() const noexcept { return bins_; }

private:
    std::map<std::int64_t, std::size_t> bins_;
    std::size_t total_ = 0;
};

/// Formats `x` with `digits` digits after the decimal point (bench output).
std::string format_fixed(double x, int digits);

}  // namespace espread::sim
