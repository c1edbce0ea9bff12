// Scalar reference for the engine's window loop.
//
// One session, simulated the straightforward way: a plain-double Eq. 1
// estimate stepped by BurstEstimator::ewma_step, a fresh
// calculate_permutation per window, LossMask vectors, and one
// GilbertLoss::drop_next() per packet.  The governor-lite step and the
// NACK-lite credit bank are the pool's own shared steps.  test_engine pins the batched SoA
// hot path (bit-range marking, run merging, scatter_set_bits,
// walk_set_runs) against this implementation window by window, so any
// divergence in the engine's word-level tricks fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/config.hpp"

namespace espread::engine {

/// Per-window trace of one reference session.
struct ReferenceTrace {
    std::vector<std::size_t> window_clf;    ///< playback-order CLF per window
    std::vector<std::size_t> window_bound;  ///< Eq. 1 bound used per window
    /// Governor-lite state each window ran under (kGovNormal throughout
    /// when cfg.governor is off) — pins the pool's supervised loop.
    std::vector<std::uint8_t> window_state;
    std::uint64_t unit_losses = 0;
    std::uint64_t acks_delivered = 0;
    std::uint64_t acks_lost = 0;
    std::uint64_t governor_transitions = 0;
    /// FEC-lite arm mirror (zero when cfg.fec is off).
    std::uint64_t fec_repair_packets = 0;
    std::uint64_t fec_windows_recovered = 0;
    /// NACK-lite arm mirror (zero when cfg.fec.nack is off).
    std::uint64_t nack_requests_sent = 0;
    std::uint64_t nack_requests_lost = 0;
    std::uint64_t nack_repair_packets = 0;
    std::uint64_t nack_credits_expired = 0;
    std::uint64_t nack_windows_proactive = 0;
};

/// Runs `windows` buffer windows of the session identified by
/// `session_id` under `cfg` (churn ignored: the caller decides how many
/// windows a generation lives).  Uses the same RNG stream layout as
/// SessionPool::spawn — root = derive_seed(cfg.seed, session_id), data
/// chain = split(kEngineLaneDataChain), feedback chain =
/// split(kEngineLaneFeedbackChain) — so the trace predicts the pool slot
/// exactly.
ReferenceTrace run_reference_session(const EngineConfig& cfg,
                                     std::uint64_t session_id,
                                     std::size_t windows);

}  // namespace espread::engine
