#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace espread::sim {

void RunningStats::add(double x) noexcept {
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
    // n == 0 and n == 1 have no spread by definition; catastrophic
    // cancellation in add()/merge() can also leave m2_ a hair below zero,
    // which must read as 0 variance, never a NaN deviation.
    if (count_ < 2) return 0.0;
    return std::max(m2_, 0.0) / static_cast<double>(count_);
}

double RunningStats::deviation() const noexcept { return std::sqrt(variance()); }

double RunningStats::sample_variance() const noexcept {
    if (count_ < 2) return 0.0;
    return std::max(m2_, 0.0) / static_cast<double>(count_ - 1);
}

std::string format_fixed(double x, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
    return buf;
}

}  // namespace espread::sim
