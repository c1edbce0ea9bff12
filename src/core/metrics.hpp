// Content-based continuity QoS metrics (paper §2.1, Fig. 1).
//
// A CM stream is a sequence of LDU playback slots; each slot either shows
// its ideal LDU (delivered) or suffers a unit loss (the LDU was lost, or a
// previous LDU had to be repeated).  Two metrics measure the deviation from
// the ideal stream:
//   * ALF — aggregate loss factor: fraction of slots with a unit loss;
//   * CLF — consecutive loss factor: the largest run of consecutive unit
//     losses.  Perceptual studies put the tolerable CLF at 2 frames for
//     video and 3 for audio; CLF is the quantity error spreading minimizes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/stats.hpp"

namespace espread {

/// Per-slot delivery outcome in playback order: true = the ideal LDU played
/// in its slot, false = unit loss.
using LossMask = std::vector<bool>;

/// Bit-packed delivery mask (64 slots per word) with word-at-a-time metric
/// fast paths.  Same polarity as LossMask: a set bit means the slot's ideal
/// LDU was delivered; a clear bit is a unit loss.  Bits beyond size() are
/// kept set so loss scans never see phantom losses in the tail word.
class BitMask {
public:
    BitMask() = default;

    /// `n` slots, all initialized to `delivered`.
    explicit BitMask(std::size_t n, bool delivered = true);

    /// Packs a vector<bool> mask.
    static BitMask from_mask(const LossMask& mask);

    /// Unpacks into the vector<bool> representation.
    LossMask to_mask() const;

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Delivery outcome of slot `i` (unchecked).
    bool test(std::size_t i) const noexcept {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    /// Sets slot `i` to `delivered` (unchecked).
    void set(std::size_t i, bool delivered) noexcept {
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if (delivered) {
            words_[i >> 6] |= bit;
        } else {
            words_[i >> 6] &= ~bit;
        }
    }

    /// Backing words, least-significant bit = lowest slot.  Tail bits past
    /// size() are set (delivered).
    const std::vector<std::uint64_t>& words() const noexcept { return words_; }

    bool operator==(const BitMask& rhs) const noexcept = default;

private:
    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

/// Summary of one window (or one whole stream) of playback slots.
struct ContinuityReport {
    std::size_t slots = 0;       ///< total playback slots considered
    std::size_t unit_losses = 0; ///< number of slots with a unit loss
    std::size_t clf = 0;         ///< longest run of consecutive unit losses
    double alf = 0.0;            ///< unit_losses / slots (0 when slots == 0)
};

/// Lengths of each maximal run of consecutive losses, in order.
/// E.g. delivered-lost-lost-delivered-lost -> {2, 1}.
std::vector<std::size_t> loss_runs(const LossMask& delivered);

/// Longest run of consecutive losses (the CLF of the mask).
std::size_t consecutive_loss(const LossMask& delivered);

/// Number of unit losses in the mask.
std::size_t aggregate_loss_count(const LossMask& delivered);

/// Full continuity report for one mask.
ContinuityReport measure_continuity(const LossMask& delivered);

// Bit-packed fast paths: identical results to the LossMask versions above
// (property-tested against them), but scan 64 slots per word using
// popcount / countr_zero instead of one branch per slot.
std::vector<std::size_t> loss_runs(const BitMask& delivered);
std::size_t consecutive_loss(const BitMask& delivered);
std::size_t aggregate_loss_count(const BitMask& delivered);
ContinuityReport measure_continuity(const BitMask& delivered);

// Raw-word batch entry points for the multi-session engine (src/engine):
// the caller owns packed LOSS-polarity words (set bit = unit loss, the
// inverse of BitMask) with every bit past the mask's logical size clear.
// These run on caller arenas with no BitMask object and no allocation.

/// Calls on_run(length) once for every maximal run of set bits across
/// `nwords` words, word wi being word_at(wi), treated as one contiguous
/// bit sequence (bit 0 of word 0 first; a run crossing word boundaries is
/// reported whole), in order of position, and returns the longest length,
/// 0 when no bit is set.  One pass gives the engine both a window's CLF
/// and its loss-run telemetry; the BitMask scans below use it too.
template <typename WordAt, typename OnRun>
std::size_t walk_set_runs(std::size_t nwords, WordAt&& word_at,
                          OnRun&& on_run) {
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    std::size_t best = 0;
    std::size_t carry = 0;  // run continuing in from the previous word
    const auto close = [&](std::size_t run) {
        if (run > best) best = run;
        on_run(run);
    };
    for (std::size_t wi = 0; wi < nwords; ++wi) {
        const std::uint64_t w = word_at(wi);
        if (w == kAll) {
            carry += 64;
            continue;
        }
        // The word has a clear bit, so the carried run ends in its leading
        // set bits, the runs touching neither end are interior, and the
        // run touching the word top carries into the next word.
        const unsigned lead = static_cast<unsigned>(std::countr_one(w));
        const unsigned top = static_cast<unsigned>(std::countl_one(w));
        if (carry + lead > 0) close(carry + lead);
        std::uint64_t x = w & (kAll << lead) & (kAll >> top);
        while (x != 0) {
            x >>= std::countr_zero(x);
            const unsigned o = static_cast<unsigned>(std::countr_one(x));
            close(o);
            x >>= o;  // o < 64: the interior run's upper neighbour is clear
        }
        carry = top;
    }
    if (carry > 0) close(carry);
    return best;
}

/// walk_set_runs over the caller's packed words.
template <typename OnRun>
std::size_t walk_set_runs(const std::uint64_t* words, std::size_t nwords,
                          OnRun&& on_run) {
    return walk_set_runs(
        nwords, [words](std::size_t wi) noexcept { return words[wi]; },
        on_run);
}

/// Longest run of set bits across `nwords` words treated as one contiguous
/// bit sequence (bit 0 of words[0] first).  Equals consecutive_loss() of
/// the corresponding delivery mask.
inline std::size_t max_set_run(const std::uint64_t* words,
                               std::size_t nwords) noexcept {
    return walk_set_runs(words, nwords, [](std::size_t) noexcept {});
}

/// Number of set bits across `nwords` words — aggregate_loss_count() of the
/// corresponding delivery mask.
std::size_t count_set_bits(const std::uint64_t* words, std::size_t nwords) noexcept;

/// Accumulates continuity over a sequence of buffer windows, tracking the
/// per-window CLF series the paper plots in Figure 8 plus its mean /
/// deviation rows.  Window boundaries do NOT merge loss runs: each window is
/// measured independently, matching the paper's per-buffer-window CLF.
class ContinuityMeter {
public:
    /// Records one buffer window worth of playback outcomes.
    void add_window(const LossMask& delivered);
    void add_window(const BitMask& delivered);

    std::size_t windows() const noexcept { return clf_series_.size(); }

    /// Per-window CLF values in arrival order.
    const sim::TimeSeries& clf_series() const noexcept { return clf_series_; }

    /// Mean / deviation of per-window CLF (the paper's "Mean 1.46, Dev 0.56").
    sim::RunningStats clf_stats() const { return clf_series_.y_stats(); }

    /// Continuity aggregated over all slots of all windows.  The ALF ratio
    /// is computed here, once, rather than re-divided on every add_window.
    ContinuityReport total() const noexcept;

private:
    void accumulate(const ContinuityReport& w);

    sim::TimeSeries clf_series_;
    ContinuityReport total_;  // alf field unused; derived lazily in total()
};

}  // namespace espread
