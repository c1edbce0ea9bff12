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

namespace espread {

/// Per-slot delivery outcome in playback order: true = the ideal LDU played
/// in its slot, false = unit loss.
using LossMask = std::vector<bool>;

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

/// Continuity report of the slots [first, last) of `delivered`, measured
/// in place (one pass, no copy of the slice).
ContinuityReport measure_continuity(const LossMask& delivered, std::size_t first,
                                    std::size_t last);

// Raw-word batch entry points for the multi-session engine (src/engine):
// the caller owns packed LOSS-polarity words (set bit = unit loss, the
// inverse of a LossMask entry) with every bit past the mask's logical size
// clear.  These run on caller arenas with no allocation.

/// Calls on_run(length) once for every maximal run of set bits across
/// `nwords` words treated as one contiguous bit sequence (bit 0 of
/// words[0] first; a run crossing word boundaries is reported whole), in
/// order of position, and returns the longest length, 0 when no bit is
/// set.  One pass gives the engine both a window's CLF and its loss-run
/// telemetry: on loss-polarity words the result is consecutive_loss() and
/// the runs are loss_runs() of the corresponding delivery mask.
template <typename OnRun>
std::size_t walk_set_runs(const std::uint64_t* words, std::size_t nwords,
                          OnRun&& on_run) {
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    std::size_t best = 0;
    std::size_t carry = 0;  // run continuing in from the previous word
    const auto close = [&](std::size_t run) {
        if (run > best) best = run;
        on_run(run);
    };
    for (std::size_t wi = 0; wi < nwords; ++wi) {
        const std::uint64_t w = words[wi];
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

/// Accumulates continuity over a sequence of buffer windows: the slot and
/// unit-loss totals and the worst per-window CLF.  Window boundaries do NOT
/// merge loss runs: each window is measured independently, matching the
/// paper's per-buffer-window CLF.
class ContinuityMeter {
public:
    /// Records one buffer window worth of playback outcomes.
    void add_window(const LossMask& delivered);

    /// Records one buffer window already measured by measure_continuity.
    void add(const ContinuityReport& window) noexcept;

    std::size_t windows() const noexcept { return windows_; }

    /// Continuity aggregated over all slots of all windows; `clf` is the
    /// largest per-window CLF.  The ALF ratio is computed here, once,
    /// rather than re-divided on every add_window.
    ContinuityReport total() const noexcept;

private:
    std::size_t windows_ = 0;
    ContinuityReport total_;  // alf field unused; derived lazily in total()
};

}  // namespace espread
