#include "engine/reference.hpp"

#include <optional>

#include "core/cpo.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "core/permutation.hpp"
#include "engine/governor_lite.hpp"
#include "net/gilbert.hpp"
#include "sim/contracts.hpp"
#include "sim/rng.hpp"

namespace espread::engine {

ReferenceTrace run_reference_session(const EngineConfig& cfg,
                                     std::uint64_t session_id,
                                     std::size_t windows) {
    cfg.validate();
    const std::size_t n = cfg.window_ldus;
    const std::size_t f = cfg.packets_per_ldu;
    constexpr std::size_t D = EngineConfig::kFeedbackDelayWindows;
    const std::size_t repairs =
        cfg.fec.enabled ? n * f * cfg.fec.overhead_num / cfg.fec.overhead_den
                        : 0;

    sim::Rng root(sim::derive_seed(cfg.seed, session_id));
    net::GilbertLoss data(cfg.data_loss,
                          root.split(contracts::kEngineLaneDataChain));
    net::GilbertLoss feedback(cfg.feedback_loss,
                              root.split(contracts::kEngineLaneFeedbackChain));
    // Plain-double Eq. 1 state, written with the exact expressions the
    // pool uses (identical to BurstEstimator::update), so governed and
    // ungoverned traces both predict the SoA slot bit-for-bit.
    double estimate = static_cast<double>(n) / 2.0;
    GovernorLiteState gov;
    gov.published =
        static_cast<std::uint32_t>(BurstEstimator::bound_for(estimate, n));
    std::vector<std::optional<std::size_t>> pending(D);

    ReferenceTrace trace;
    trace.window_clf.reserve(windows);
    trace.window_bound.reserve(windows);
    trace.window_state.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
        const bool fed = pending[w % D].has_value();
        if (fed) {
            estimate = cfg.alpha * static_cast<double>(*pending[w % D]) +
                       (1.0 - cfg.alpha) * estimate;
            pending[w % D].reset();
        }
        std::size_t bound;
        if (cfg.governor.enabled) {
            const GovernorLiteOutcome o =
                governor_lite_step(gov, w >= D, fed, estimate, n);
            bound = o.bound;
            if (o.transitioned) ++trace.governor_transitions;
        } else {
            bound = BurstEstimator::bound_for(estimate, n);
        }
        trace.window_state.push_back(gov.state);

        // One drop_next per packet; an LDU is lost if any packet is.
        LossMask tx_delivered(n, true);
        std::size_t lost_pkts = 0;
        for (std::size_t ldu = 0; ldu < n; ++ldu) {
            for (std::size_t p = 0; p < f; ++p) {
                if (data.drop_next()) {
                    tx_delivered[ldu] = false;
                    ++lost_pkts;
                }
            }
        }

        // FEC-lite mirror: the repair packets always follow the sources
        // through the same chain; a lossy window is repaired whole iff
        // the survivors cover the lost source packets.
        std::size_t fec_survived = 0;
        if (cfg.fec.enabled) {
            for (std::size_t r = 0; r < repairs; ++r) {
                if (!data.drop_next()) ++fec_survived;
            }
            trace.fec_repair_packets += repairs;
        }
        const bool recovered =
            cfg.fec.enabled && lost_pkts > 0 && fec_survived >= lost_pkts;
        if (recovered) ++trace.fec_windows_recovered;

        const std::size_t obs = consecutive_loss(tx_delivered);
        const Permutation perm = cfg.spread
                                     ? calculate_permutation(n, bound).perm
                                     : Permutation::identity(n);
        const LossMask playback =
            recovered ? LossMask(n, true) : perm.unapply(tx_delivered);

        trace.window_clf.push_back(consecutive_loss(playback));
        trace.window_bound.push_back(bound);
        trace.unit_losses += aggregate_loss_count(playback);

        if (feedback.drop_next()) {
            ++trace.acks_lost;
        } else {
            pending[w % D] = obs;
            ++trace.acks_delivered;
        }
    }
    return trace;
}

}  // namespace espread::engine
