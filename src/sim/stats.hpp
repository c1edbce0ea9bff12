// Streaming statistics used throughout the benchmarks and the protocol's
// per-window CLF reporting (mean / deviation rows of Figure 8 et al.).
#pragma once

#include <cstddef>
#include <string>

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

/// Formats `x` with `digits` digits after the decimal point (bench output).
std::string format_fixed(double x, int digits);

}  // namespace espread::sim
