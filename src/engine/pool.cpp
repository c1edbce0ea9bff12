#include "engine/pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/control.hpp"
#include "core/cpo.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "sim/contracts.hpp"
#include "sim/rng.hpp"

namespace espread::engine {

namespace {

constexpr std::uint32_t kNoObs = std::numeric_limits<std::uint32_t>::max();

/// Sets bits [lo, hi] (inclusive) across packed words.
void set_bits(std::uint64_t* w, std::size_t lo, std::size_t hi) noexcept {
    const std::size_t wlo = lo >> 6;
    const std::size_t whi = hi >> 6;
    const std::uint64_t mlo = ~std::uint64_t{0} << (lo & 63);
    const std::uint64_t mhi = (hi & 63) == 63
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << ((hi & 63) + 1)) - 1;
    if (wlo == whi) {
        w[wlo] |= mlo & mhi;
        return;
    }
    w[wlo] |= mlo;
    for (std::size_t i = wlo + 1; i < whi; ++i) w[i] = ~std::uint64_t{0};
    w[whi] |= mhi;
}

std::uint32_t clamp_u32(std::uint64_t v) noexcept {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    return static_cast<std::uint32_t>(v < kMax ? v : kMax);
}

/// Clears a window's packed words; the common one-word window (n <= 64)
/// stores its word directly instead of calling memset.
void clear_words(std::uint64_t* w, std::size_t words) noexcept {
    if (words == 1) {
        w[0] = 0;
    } else {
        std::fill_n(w, words, std::uint64_t{0});
    }
}

}  // namespace

SessionPool::SessionPool(const EngineConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
    capacity_ = cfg_.sessions;
    n_ = cfg_.window_ldus;
    f_ = cfg_.packets_per_ldu;
    words_ = (n_ + 63) / 64;
    ldu_of_.resize(n_ * f_);
    for (std::size_t p = 0; p < ldu_of_.size(); ++p) ldu_of_[p] = p / f_;

    if (cfg_.spread) {
        perms_.resize(n_ + 1);
        for (std::size_t b = 1; b <= n_; ++b) {
            perms_[b] = calculate_permutation(n_, b).perm;
        }
    }

    constexpr std::size_t D = EngineConfig::kFeedbackDelayWindows;
    // One model lookup per channel: spawn() reseeds these chains in place.
    data_chain_.assign(capacity_,
                       net::GilbertLoss(cfg_.data_loss, sim::Rng(0)));
    feedback_chain_.assign(capacity_,
                           net::GilbertLoss(cfg_.feedback_loss, sim::Rng(0)));
    estimate_.assign(capacity_, 0.0);
    pending_.assign(capacity_ * D, kNoObs);
    windows_run_.assign(capacity_, 0);
    lifetime_left_.assign(capacity_, 0);
    idle_left_.assign(capacity_, 0);
    gap_next_.assign(capacity_, 0);
    generation_.assign(capacity_, 0);
    if (cfg_.fec.enabled) {
        fec_repairs_per_window_ =
            n_ * f_ * cfg_.fec.overhead_num / cfg_.fec.overhead_den;
    }
    if (cfg_.fec.nack) {
        nack_credit_.assign(capacity_, 0);
        nack_wd_.assign(capacity_, 0);
    }
    if (cfg_.governor.enabled) gov_.assign(capacity_, GovernorLiteState{});

    for (std::size_t slot = 0; slot < capacity_; ++slot) spawn(slot);
}

std::pair<std::uint32_t, std::uint32_t> SessionPool::churn_draw(
    const EngineConfig& cfg, std::uint64_t session_id) {
    sim::Rng root(sim::derive_seed(cfg.seed, session_id));
    sim::Rng life = root.split(contracts::kEngineLaneChurn);
    const double min_life =
        static_cast<double>(cfg.churn.min_lifetime_windows);
    const double extra = cfg.churn.mean_lifetime_windows > min_life
                             ? cfg.churn.mean_lifetime_windows - min_life
                             : 0.0;
    std::uint64_t lifetime = static_cast<std::uint64_t>(
                                 cfg.churn.min_lifetime_windows) +
                             life.geometric(1.0 / (1.0 + extra));
    if (lifetime == 0) lifetime = 1;
    std::uint64_t gap = 0;
    if (cfg.churn.mean_arrival_gap_windows > 0.0) {
        gap = life.geometric(1.0 / (1.0 + cfg.churn.mean_arrival_gap_windows));
    }
    return {clamp_u32(lifetime), clamp_u32(gap)};
}

void SessionPool::spawn(std::size_t slot) {
    const std::uint64_t id =
        static_cast<std::uint64_t>(generation_[slot]) *
            static_cast<std::uint64_t>(capacity_) +
        static_cast<std::uint64_t>(slot);
    sim::Rng root(sim::derive_seed(cfg_.seed, id));
    data_chain_[slot].reseed(root.split(contracts::kEngineLaneDataChain));
    feedback_chain_[slot].reseed(
        root.split(contracts::kEngineLaneFeedbackChain));
    estimate_[slot] = BurstEstimator::prior(n_);
    windows_run_[slot] = 0;
    constexpr std::size_t D = EngineConfig::kFeedbackDelayWindows;
    for (std::size_t d = 0; d < D; ++d) pending_[slot * D + d] = kNoObs;
    if (cfg_.churn.enabled) {
        const auto [life, gap] = churn_draw(cfg_, id);
        lifetime_left_[slot] = life;
        gap_next_[slot] = gap;
    } else {
        lifetime_left_[slot] = 0;
        gap_next_[slot] = 0;
    }
    if (cfg_.governor.enabled) {
        // Fresh session, fresh supervision: Normal with the prior's bound
        // as the slew reference (the in-progress dwell of a departing
        // session ends unrecorded — only completed visits are observed).
        gov_[slot] = GovernorLiteState{};
        gov_[slot].published = static_cast<std::uint32_t>(
            BurstEstimator::bound_for(estimate_[slot], n_));
    }
    if (cfg_.fec.nack) {
        // A fresh session starts with an empty bank and a live path.
        nack_credit_[slot] = 0;
        nack_wd_[slot] = 0;
    }
}

void SessionPool::init_scratch(ShardScratch& s) const {
    constexpr std::size_t kPad = ShardScratch::kLossWordsPad;
    s.loss_words.assign(kPad + 2 * words_ + kPad, 0);
    s.clf_hist = obs::Histogram{};
    s.bound_hist = obs::Histogram{};
    s.totals = EngineTotals{};
}

void SessionPool::run_window_range(std::size_t begin, std::size_t end,
                                   ShardScratch& s) noexcept {
    constexpr std::size_t D = EngineConfig::kFeedbackDelayWindows;
    const std::size_t packets = n_ * f_;
    const bool governed = cfg_.governor.enabled;
    const bool fec_on = cfg_.fec.enabled;
    const bool nack_on = cfg_.fec.nack;
    std::uint64_t* const tx =
        s.loss_words.data() + ShardScratch::kLossWordsPad;
    std::uint64_t* const pb = tx + words_;
    const std::size_t* const ldu_of = ldu_of_.data();
    obs::telemetry::TelemetrySlab* const tel = s.telemetry;
    // The range counts into a local block and local CLF and bound
    // histograms, merged once at the end.
    EngineTotals t;
    obs::telemetry::TelemetryCounters& c = t.counters;
    obs::Histogram clf_hist;
    obs::Histogram bound_hist;
    for (std::size_t slot = begin; slot < end; ++slot) {
        if (idle_left_[slot] > 0) {
            // Churn gap: the slot carries no session this window.  The
            // arriving session's first window runs on the next step.
            ++c.idle_windows;
            if (--idle_left_[slot] == 0) {
                ++generation_[slot];
                spawn(slot);
                ++c.sessions_spawned;
            }
            continue;
        }

        // 1. Feedback that has aged kFeedbackDelayWindows becomes the
        //    Eq. 1 observation shaping this window (Fig. 6 pipeline).
        const std::uint32_t w = windows_run_[slot];
        std::uint32_t& cell = pending_[slot * D + (w % D)];
        const bool fed = cell != kNoObs;
        if (fed) {
            estimate_[slot] = BurstEstimator::ewma_step(
                estimate_[slot], static_cast<double>(cell), cfg_.alpha);
            cell = kNoObs;
        }
        std::size_t bound;
        std::uint8_t gov_state = kGovNormal;
        if (governed) {
            // Governor-lite supervision: the watchdog arms once feedback
            // could have arrived (w >= D); the published bound may be
            // decayed, pinned to the prior or slew-limited by state.
            const GovernorLiteOutcome o = governor_lite_step(
                gov_[slot], static_cast<std::size_t>(w) >= D, fed,
                estimate_[slot], n_);
            bound = o.bound;
            gov_state = gov_[slot].state;
            if (o.transitioned) {
                ++t.governor_transitions;
                if (tel != nullptr) tel->observe_governor_exit(o.exit_dwell);
            }
        } else {
            bound = BurstEstimator::bound_for(estimate_[slot], n_);
        }

        // 2. Channel: batched Gilbert runs -> lost-LDU bit ranges in
        //    transmission order (an LDU is lost if any of its packets is).
        //    The ranges arrive in order, so merging touching ones as they
        //    come yields the maximal runs of lost LDUs and with them the
        //    transmission-order observation `obs` the ACK reports.
        clear_words(tx, words_);
        net::GilbertLoss& chain = data_chain_[slot];
        std::size_t pkt = 0;
        std::size_t lost_pkts = 0;
        bool any_loss = false;
        std::size_t obs = 0;     // longest closed run of lost LDUs
        std::size_t run_lo = 0;  // open run: LDUs [run_lo, run_hi]
        std::size_t run_hi = 0;
        while (pkt < packets) {
            const net::GilbertLoss::Run run =
                chain.next_run(static_cast<std::uint64_t>(packets - pkt));
            const std::size_t len = static_cast<std::size_t>(run.length);
            if (run.lost) {
                const std::size_t lo = ldu_of[pkt];
                const std::size_t hi = ldu_of[pkt + len - 1];
                set_bits(tx, lo, hi);
                if (!any_loss || lo > run_hi + 1) {
                    if (any_loss) obs = std::max(obs, run_hi + 1 - run_lo);
                    run_lo = lo;
                }
                run_hi = hi;
                any_loss = true;
                lost_pkts += len;
            }
            pkt += len;
        }
        if (any_loss) obs = std::max(obs, run_hi + 1 - run_lo);

        // 2b. FEC-lite: the window's repair packets ride the same chain,
        //     and are always sent (constant bandwidth, shard-independent
        //     chain advance even on loss-free windows).  Under NACK-lite
        //     the accrual banks instead, and releases only for a lossy
        //     window whose NACK — piggybacked on this window's feedback
        //     packet, drawn here so the feedback chain still advances
        //     exactly once per window — survives the channel; a watchdog
        //     of consecutive lost feedbacks reverts to the fixed schedule.
        std::size_t fec_survived = 0;
        std::size_t fec_repairs_this_window = 0;
        bool nack_fb_lost = false;     // this window's feedback draw
        bool nack_reactive = false;    // draw happened here, skip stage 4's
        if (fec_on) {
            if (nack_on && nack_wd_[slot] < control::kWatchdogWindows) {
                nack_reactive = true;
                const std::size_t bank = nack_credit_[slot];
                const std::size_t banked =
                    control::bank_credits(bank, fec_repairs_per_window_);
                nack_credit_[slot] = static_cast<std::uint32_t>(banked);
                t.nack_expired += bank + fec_repairs_per_window_ - banked;
                nack_fb_lost = feedback_chain_[slot].drop_next();
                if (any_loss) {
                    ++t.nack_sent;
                    if (nack_fb_lost) {
                        ++t.nack_lost;
                    } else {
                        fec_repairs_this_window = std::min<std::size_t>(
                            nack_credit_[slot], lost_pkts);
                        nack_credit_[slot] -= static_cast<std::uint32_t>(
                            fec_repairs_this_window);
                        t.nack_repairs += fec_repairs_this_window;
                    }
                }
            } else {
                // Plain FEC-lite, or the NACK watchdog fired: fixed
                // proactive schedule (graceful degradation).
                fec_repairs_this_window = fec_repairs_per_window_;
                if (nack_on) ++t.nack_proactive;
            }
            std::size_t rp = 0;
            while (rp < fec_repairs_this_window) {
                const net::GilbertLoss::Run run = chain.next_run(
                    static_cast<std::uint64_t>(fec_repairs_this_window - rp));
                const std::size_t len = static_cast<std::size_t>(run.length);
                if (!run.lost) fec_survived += len;
                rp += len;
            }
        }

        // 3. Unspread + continuity accounting, word at a time.  A window
        //    whose surviving repairs cover its lost source packets is
        //    repaired whole before playback (all-or-nothing MDS limit);
        //    `obs` from stage 2 still reports the raw channel to
        //    feedback.  One walk over a played window's words yields its
        //    CLF, sums its runs into the unit losses and feeds each run
        //    to telemetry.
        std::size_t clf = 0;
        std::size_t losses = 0;
        bool recovered = false;
        const auto played_run = [&losses, tel](std::size_t run) noexcept {
            losses += run;
            if (tel != nullptr) tel->observe_loss_run(run);
        };
        if (any_loss) {
            if (fec_on && fec_survived >= lost_pkts) {
                recovered = true;
            } else if (cfg_.spread) {
                clear_words(pb, words_);
                perms_[bound].scatter_set_bits(tx, pb, words_);
                clf = walk_set_runs(pb, words_, played_run);
            } else {
                clf = walk_set_runs(tx, words_, played_run);
            }
        }

        // 4. The client ACKs its transmission-order burst observation
        //    across the (lossy) feedback channel.  Under reactive
        //    NACK-lite the draw already happened in 2b (the NACK and ACK
        //    share the window's feedback packet); reusing it keeps the
        //    chain at one draw per window in every mode.
        const bool ack_lost =
            nack_reactive ? nack_fb_lost : feedback_chain_[slot].drop_next();
        if (nack_on) nack_wd_[slot] = ack_lost ? nack_wd_[slot] + 1 : 0;
        if (ack_lost) {
            ++c.acks_lost;
        } else {
            pending_[slot * D + (w % D)] = static_cast<std::uint32_t>(obs);
            ++c.acks_delivered;
        }

        // 5. Integer accumulators (grouping-independent merge).
        ++c.windows;
        c.unit_losses += losses;
        c.loss_windows += losses != 0 ? 1u : 0u;
        ++c.governor_windows[gov_state];
        t.clf_sq +=
            static_cast<std::uint64_t>(clf) * static_cast<std::uint64_t>(clf);
        if (clf > t.clf_max) t.clf_max = clf;
        clf_hist.record(clf);
        bound_hist.record(bound);
        if (fec_on) {
            t.fec_repairs += fec_repairs_this_window;
            if (any_loss) {
                if (recovered) {
                    ++t.fec_recovered;
                } else {
                    ++t.fec_unrecovered;
                }
            }
        }
        windows_run_[slot] = w + 1;

        // 6. Churn: departure, then either an idle gap or an immediate
        //    respawn with a fresh RNG stream (new session id).
        if (lifetime_left_[slot] > 0 && --lifetime_left_[slot] == 0) {
            ++c.sessions_completed;
            if (gap_next_[slot] > 0) {
                idle_left_[slot] = gap_next_[slot];
            } else {
                ++generation_[slot];
                spawn(slot);
                ++c.sessions_spawned;
            }
        }
    }
    s.totals.merge(t);
    s.clf_hist.merge(clf_hist);
    s.bound_hist.merge(bound_hist);
    if (tel != nullptr) {
        tel->counters.merge(c);
        tel->observe_windows(clf_hist, bound_hist);
    }
}

EngineSummary SessionPool::summarize(
    const std::vector<ShardScratch>& shards) const {
    EngineSummary out;
    out.sessions = capacity_;
    for (std::size_t slot = 0; slot < capacity_; ++slot) {
        if (idle_left_[slot] == 0) ++out.active_sessions;
    }
    EngineTotals t;
    for (const ShardScratch& s : shards) {
        t.merge(s.totals);
        out.clf_histogram.merge(s.clf_hist);
        out.bound_histogram.merge(s.bound_hist);
    }
    const obs::telemetry::TelemetryCounters& c = t.counters;
    out.windows = c.windows;
    out.unit_losses = c.unit_losses;
    out.idle_windows = c.idle_windows;
    out.acks_delivered = c.acks_delivered;
    out.acks_lost = c.acks_lost;
    // The generation-0 prefill spawned every slot in the constructor.
    out.sessions_spawned = c.sessions_spawned + capacity_;
    out.sessions_completed = c.sessions_completed;
    for (std::size_t st = 0; st < 4; ++st) {
        out.governor_windows[st] = c.governor_windows[st];
    }
    out.governor_transitions = t.governor_transitions;
    out.clf_max = t.clf_max;
    out.fec = cfg_.fec.enabled;
    out.fec_repair_packets = t.fec_repairs;
    out.fec_windows_recovered = t.fec_recovered;
    out.fec_windows_unrecovered = t.fec_unrecovered;
    out.nack = cfg_.fec.nack;
    out.nack_requests_sent = t.nack_sent;
    out.nack_requests_lost = t.nack_lost;
    out.nack_repair_packets = t.nack_repairs;
    out.nack_credits_expired = t.nack_expired;
    out.nack_windows_proactive = t.nack_proactive;
    out.slots = out.windows * static_cast<std::uint64_t>(n_);
    if (out.windows > 0) {
        const double w = static_cast<double>(out.windows);
        out.alf = static_cast<double>(out.unit_losses) /
                  static_cast<double>(out.slots);
        out.clf_mean = out.clf_histogram.mean();
        const double var =
            static_cast<double>(t.clf_sq) / w - out.clf_mean * out.clf_mean;
        out.clf_dev = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return out;
}

}  // namespace espread::engine
