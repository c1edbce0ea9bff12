#include "engine/reference.hpp"

#include <algorithm>
#include <optional>

#include "core/control.hpp"
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
    // Plain-double Eq. 1 state, stepped by the pool's own
    // BurstEstimator::ewma_step, so governed and ungoverned traces both
    // predict the SoA slot bit-for-bit.
    double estimate = BurstEstimator::prior(n);
    GovernorLiteState gov;
    gov.published =
        static_cast<std::uint32_t>(BurstEstimator::bound_for(estimate, n));
    std::vector<std::optional<std::size_t>> pending(D);
    std::size_t bank = 0;         // NACK-lite banked repair credits
    std::size_t nack_silent = 0;  // consecutive lost feedback packets

    ReferenceTrace trace;
    trace.window_clf.reserve(windows);
    trace.window_bound.reserve(windows);
    trace.window_state.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
        const bool fed = pending[w % D].has_value();
        if (fed) {
            estimate = BurstEstimator::ewma_step(
                estimate, static_cast<double>(*pending[w % D]), cfg.alpha);
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

        // FEC-lite mirror: the repair packets follow the sources through
        // the same chain; a lossy window is repaired whole iff the
        // survivors cover the lost source packets.  Under NACK-lite, while
        // the watchdog holds, the accrual banks and a lossy window's NACK,
        // carried by this window's feedback packet, releases up to the
        // lost count; otherwise the fixed schedule sends every repair.
        std::size_t sent_repairs = repairs;
        std::optional<bool> feedback_lost;  // drawn here for a NACK
        if (cfg.fec.nack && nack_silent < control::kWatchdogWindows) {
            const std::size_t banked = control::bank_credits(bank, repairs);
            trace.nack_credits_expired += bank + repairs - banked;
            bank = banked;
            feedback_lost = feedback.drop_next();
            sent_repairs = 0;
            if (lost_pkts > 0) {
                ++trace.nack_requests_sent;
                if (*feedback_lost) {
                    ++trace.nack_requests_lost;
                } else {
                    sent_repairs = std::min(bank, lost_pkts);
                    bank -= sent_repairs;
                    trace.nack_repair_packets += sent_repairs;
                }
            }
        } else if (cfg.fec.nack) {
            ++trace.nack_windows_proactive;
        }
        std::size_t fec_survived = 0;
        if (cfg.fec.enabled) {
            for (std::size_t r = 0; r < sent_repairs; ++r) {
                if (!data.drop_next()) ++fec_survived;
            }
            trace.fec_repair_packets += sent_repairs;
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

        // The ACK shares the window's one feedback packet with the NACK.
        const bool ack_lost = feedback_lost.has_value() ? *feedback_lost
                                                        : feedback.drop_next();
        nack_silent = ack_lost ? nack_silent + 1 : 0;
        if (ack_lost) {
            ++trace.acks_lost;
        } else {
            pending[w % D] = obs;
            ++trace.acks_delivered;
        }
    }
    return trace;
}

}  // namespace espread::engine
