// Closed-form analysis of the Gilbert loss process over one buffer window.
//
// For in-order transmission the playback loss pattern IS the chain's loss
// pattern, so the distribution of the per-window CLF (longest loss run)
// can be computed exactly by dynamic programming over
// (slot, chain state, current run, max run).  This gives the simulator an
// independent ground truth: the Monte-Carlo and protocol pipelines must
// reproduce these numbers (they do — see test_markov.cpp), and benches can
// quote exact baselines instead of sampled ones.
//
// For permuted transmission the playback run structure depends on the
// whole permutation and no comparable small-state DP exists; sample it
// with the engine's spread arm (engine::ShardedEngine) there.
#pragma once

#include <cstddef>
#include <vector>

#include "net/gilbert.hpp"

namespace espread::analysis {

/// Exact distribution of the longest loss run (CLF of in-order
/// transmission) over a window of `n` packets of the Gilbert chain.
/// `initial_p_good` is the probability the chain starts the window in
/// GOOD: 1.0 models the paper's fresh-start window; stationary_p_good()
/// models a window deep inside a continuous stream (which is what the
/// engine and the protocol sessions measure after the first window).
/// Element k of the result is P(CLF == k); the vector has n + 1 entries
/// and sums to 1.
std::vector<double> clf_distribution_in_order(const net::GilbertParams& params,
                                              std::size_t n,
                                              double initial_p_good = 1.0);

/// Mean of clf_distribution_in_order.
double expected_clf_in_order(const net::GilbertParams& params, std::size_t n,
                             double initial_p_good = 1.0);

/// Long-run probability of the GOOD state.
double stationary_p_good(const net::GilbertParams& params);

/// Exact probability that a specific packet (0-based) is lost, starting
/// from GOOD with probability `initial_p_good` — converges to
/// stationary_loss as index grows.
double loss_probability_at(const net::GilbertParams& params, std::size_t index,
                           double initial_p_good = 1.0);

/// Exact expected number of losses in a window of n (sum of the above).
double expected_losses_in_order(const net::GilbertParams& params, std::size_t n,
                                double initial_p_good = 1.0);

}  // namespace espread::analysis
