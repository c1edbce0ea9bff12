#include "core/metrics.hpp"

#include <algorithm>
#include <bit>

namespace espread {

namespace {

/// Number of 64-bit words covering n slots.
constexpr std::size_t words_for(std::size_t n) noexcept { return (n + 63) / 64; }

/// Word `wi` of `mask` with delivery bits INVERTED (set bit = loss) and the
/// tail bits past size() cleared, so loss scans can treat every word
/// uniformly.
std::uint64_t lost_word(const BitMask& mask, std::size_t wi) noexcept {
    std::uint64_t w = ~mask.words()[wi];
    const std::size_t tail = mask.size() - wi * 64;
    if (tail < 64) w &= (std::uint64_t{1} << tail) - 1;
    return w;
}

}  // namespace

BitMask::BitMask(std::size_t n, bool delivered)
    : words_(words_for(n), delivered ? ~std::uint64_t{0} : 0), size_(n) {
    if (!delivered && n % 64 != 0) {
        // Tail bits past size() stay set (delivered) by invariant.
        words_.back() = ~((std::uint64_t{1} << (n % 64)) - 1);
    }
}

BitMask BitMask::from_mask(const LossMask& mask) {
    BitMask out(mask.size(), true);
    for (std::size_t i = 0; i < mask.size(); ++i) {
        if (!mask[i]) out.set(i, false);
    }
    return out;
}

LossMask BitMask::to_mask() const {
    LossMask out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = test(i);
    return out;
}

std::vector<std::size_t> loss_runs(const LossMask& delivered) {
    std::vector<std::size_t> runs;
    std::size_t current = 0;
    for (const bool ok : delivered) {
        if (!ok) {
            ++current;
        } else if (current > 0) {
            runs.push_back(current);
            current = 0;
        }
    }
    if (current > 0) runs.push_back(current);
    return runs;
}

std::size_t consecutive_loss(const LossMask& delivered) {
    std::size_t best = 0;
    std::size_t current = 0;
    for (const bool ok : delivered) {
        if (!ok) {
            best = std::max(best, ++current);
        } else {
            current = 0;
        }
    }
    return best;
}

std::size_t aggregate_loss_count(const LossMask& delivered) {
    return static_cast<std::size_t>(
        std::count(delivered.begin(), delivered.end(), false));
}

std::vector<std::size_t> loss_runs(const BitMask& delivered) {
    std::vector<std::size_t> runs;
    walk_set_runs(
        delivered.words().size(),
        [&delivered](std::size_t wi) { return lost_word(delivered, wi); },
        [&runs](std::size_t run) { runs.push_back(run); });
    return runs;
}

std::size_t consecutive_loss(const BitMask& delivered) {
    return walk_set_runs(
        delivered.words().size(),
        [&delivered](std::size_t wi) { return lost_word(delivered, wi); },
        [](std::size_t) {});
}

std::size_t count_set_bits(const std::uint64_t* words, std::size_t nwords) noexcept {
    std::size_t n = 0;
    for (std::size_t wi = 0; wi < nwords; ++wi) {
        n += static_cast<std::size_t>(std::popcount(words[wi]));
    }
    return n;
}

std::size_t aggregate_loss_count(const BitMask& delivered) {
    // Tail bits past size() are set by invariant, so every clear bit in the
    // backing words is a real loss.
    std::size_t delivered_bits = 0;
    for (const std::uint64_t w : delivered.words()) {
        delivered_bits += static_cast<std::size_t>(std::popcount(w));
    }
    return delivered.words().size() * 64 - delivered_bits;
}

namespace {

template <typename Mask>
ContinuityReport measure_continuity_impl(const Mask& delivered) {
    ContinuityReport r;
    r.slots = delivered.size();
    r.unit_losses = aggregate_loss_count(delivered);
    r.clf = consecutive_loss(delivered);
    r.alf = r.slots == 0 ? 0.0
                         : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

}  // namespace

ContinuityReport measure_continuity(const LossMask& delivered) {
    return measure_continuity_impl(delivered);
}

ContinuityReport measure_continuity(const BitMask& delivered) {
    return measure_continuity_impl(delivered);
}

void ContinuityMeter::accumulate(const ContinuityReport& w) {
    clf_series_.add(static_cast<double>(clf_series_.size()), static_cast<double>(w.clf));
    total_.slots += w.slots;
    total_.unit_losses += w.unit_losses;
    total_.clf = std::max(total_.clf, w.clf);
}

void ContinuityMeter::add_window(const LossMask& delivered) {
    accumulate(measure_continuity(delivered));
}

void ContinuityMeter::add_window(const BitMask& delivered) {
    accumulate(measure_continuity(delivered));
}

ContinuityReport ContinuityMeter::total() const noexcept {
    ContinuityReport r = total_;
    r.alf = r.slots == 0
                ? 0.0
                : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

}  // namespace espread
