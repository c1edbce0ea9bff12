// Beyond Theorem 1: permutation quality under MULTIPLE bursts per window.
//
// The paper's model (and Theorem 1) assumes at most one burst of length <=
// b per n-LDU window.  A real Gilbert channel emits several shorter bursts
// per window, and orderings that are optimal for one burst can be fragile
// against two: e.g. residue_class_order(n, 2) guarantees CLF 1 for any
// single burst up to n/2, yet two short bursts — one landing on the odd
// class, one on the even class near the same playback region — produce
// adjacent losses immediately.  This module provides
//   * the exact worst case under two disjoint bursts,
//   * adjacency exposure, a cheap spectrum summarizing how hard it is for
//     k bursts to create a playback run,
//   * Monte-Carlo CLF under the actual Gilbert process,
// for comparing orderings (k-CPO, IBO, block, random) in the regime the
// paper's theory does not cover; test_multiburst pins each on small cases.
#pragma once

#include <cstddef>
#include <vector>

#include "core/metrics.hpp"
#include "core/permutation.hpp"
#include "net/gilbert.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace espread::analysis {

/// Exact worst-case playback CLF when the channel may drop up to TWO
/// disjoint runs of transmissions, each of length <= b, within the window.
/// O(n^3) in the worst case — intended for window sizes up to a few
/// hundred.  With b == 0 returns 0; a single burst (the second empty) is
/// included, so this is >= worst_case_clf(perm, b).
std::size_t worst_case_clf_two_bursts(const Permutation& perm, std::size_t b);

/// Adjacency exposure at wire distance d: the number of playback-adjacent
/// pairs (x, x+1) whose transmission slots are exactly d apart.  A single
/// burst of length b can only join x and x+1 if their slots are < b apart,
/// so exposure at small d is what a one-burst adversary exploits; two
/// bursts can exploit any distance, which is why the full profile matters.
/// Returns a vector e of size n where e[d] is the count at distance d.
std::vector<std::size_t> adjacency_exposure(const Permutation& perm);

/// Smallest wire distance between any playback-adjacent pair — the largest
/// single burst the order tolerates with CLF 1.
std::size_t min_adjacent_distance(const Permutation& perm);

/// Monte-Carlo continuity of an ordering under the Gilbert loss process:
/// `trials` windows are drawn, each LDU passing through the chain once (an
/// LDU-granularity approximation of the packet process).  Returns the
/// per-window CLF statistics and the aggregate loss rate.
struct GilbertClfResult {
    sim::RunningStats clf;   ///< per-window playback CLF
    double alf = 0.0;        ///< fraction of LDUs lost overall
};
GilbertClfResult gilbert_clf(const Permutation& perm,
                             const net::GilbertParams& params,
                             std::size_t trials, sim::Rng rng);

}  // namespace espread::analysis
