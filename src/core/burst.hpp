// Burst analysis: exact worst-case CLF of a permutation (paper §2.2).
//
// The network model of the Bursty Error Reduction Problem: within a window
// of n transmitted LDUs, the channel drops at most one run of at most b
// consecutive *transmissions*.  These functions translate such a burst back
// into playback order through a permutation and measure the resulting CLF,
// including the exact worst case over all burst positions — the quantity
// Theorem 1 bounds and calculatePermutation() minimizes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/metrics.hpp"
#include "core/permutation.hpp"

namespace espread {

/// Playback-order delivery mask after a burst hits transmission slots
/// [start, start+length).  The burst is clipped to the window.
LossMask burst_loss_mask(const Permutation& perm, std::size_t start, std::size_t length);

/// Exact worst-case CLF over every possible burst of length at most
/// `max_burst` within the window.  Because a longer burst's losses are a
/// superset of any shorter burst at the same start, only bursts of length
/// exactly min(max_burst, n) need to be examined.  O(n * b) time.
std::size_t worst_case_clf(const Permutation& perm, std::size_t max_burst);

/// The same over an order given by its image (slot -> playback index, a
/// bijection the caller vouches for), measured on a caller-owned loss
/// mask of image.size() entries, all false on entry and again on return:
/// scoring many candidate orders this way allocates nothing.
std::size_t worst_case_clf(const std::vector<std::size_t>& image,
                           std::size_t max_burst, std::vector<bool>& lost);

/// Packing lower bound on the CLF any transmission order can guarantee
/// against one burst of length b in a window of n (paper Theorem 1 regime
/// structure): any b-element subset of n playback slots has a run of at
/// least ceil(b / (n - b + 1)).  Returns 0 for b == 0 and n for b >= n.
std::size_t lower_bound_clf(std::size_t n, std::size_t b);

}  // namespace espread
