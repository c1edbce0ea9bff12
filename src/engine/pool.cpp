#include "engine/pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

/// Feeds every maximal run of set bits (consecutive lost LDUs in the
/// scanned order) to the telemetry slab, word at a time, with runs
/// crossing word boundaries intact.  Bits past the window are zero by
/// construction, so runs terminate correctly at the tail.
void record_loss_runs(const std::uint64_t* w, std::size_t words,
                      obs::telemetry::TelemetrySlab* slab) noexcept {
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t word = w[i];
        unsigned remaining = 64;
        while (remaining > 0) {
            if ((word & 1U) != 0) {
                unsigned ones = static_cast<unsigned>(std::countr_one(word));
                if (ones > remaining) ones = remaining;
                run += ones;
                word = ones >= 64 ? 0 : word >> ones;
                remaining -= ones;
            } else {
                unsigned zeros =
                    word == 0 ? remaining
                              : static_cast<unsigned>(std::countr_zero(word));
                if (zeros > remaining) zeros = remaining;
                if (slab != nullptr && run > 0) {
                    slab->observe_loss_run(run);
                }
                run = 0;
                word = zeros >= 64 ? 0 : word >> zeros;
                remaining -= zeros;
            }
        }
    }
    if (slab != nullptr && run > 0) slab->observe_loss_run(run);
}

}  // namespace

SessionPool::SessionPool(const EngineConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
    capacity_ = cfg_.sessions;
    n_ = cfg_.window_ldus;
    f_ = cfg_.packets_per_ldu;
    words_ = (n_ + 63) / 64;

    if (cfg_.spread) {
        perms_.resize(n_ + 1);
        for (std::size_t b = 1; b <= n_; ++b) {
            perms_[b] = calculate_permutation(n_, b).perm;
        }
    }

    const std::size_t D = cfg_.feedback_delay_windows;
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
    estimate_[slot] = static_cast<double>(n_) / 2.0;
    windows_run_[slot] = 0;
    const std::size_t D = cfg_.feedback_delay_windows;
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
    s.tx_words.assign(words_, 0);
    s.pb_words.assign(words_, 0);
    s.clf_hist = obs::Histogram{};
    s.bound_hist = obs::Histogram{};
    s.totals = EngineTotals{};
}

void SessionPool::run_window_range(std::size_t begin, std::size_t end,
                                   ShardScratch& s) noexcept {
    const std::size_t D = cfg_.feedback_delay_windows;
    const std::size_t packets = n_ * f_;
    const bool governed = cfg_.governor.enabled;
    const bool fec_on = cfg_.fec.enabled;
    const bool nack_on = cfg_.fec.nack;
    std::uint64_t* tx = s.tx_words.data();
    std::uint64_t* pb = s.pb_words.data();
    obs::telemetry::TelemetrySlab* const tel = s.telemetry;
    // The range counts into a local block, merged once at the end.
    EngineTotals t;
    obs::telemetry::TelemetryCounters& c = t.counters;
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

        // 1. Feedback that has aged feedback_delay_windows becomes the
        //    Eq. 1 observation shaping this window (Fig. 6 pipeline).
        const std::uint32_t w = windows_run_[slot];
        std::uint32_t& cell = pending_[slot * D + (w % D)];
        const bool fed = cell != kNoObs;
        if (fed) {
            estimate_[slot] = cfg_.alpha * static_cast<double>(cell) +
                              (1.0 - cfg_.alpha) * estimate_[slot];
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
        std::fill_n(tx, words_, std::uint64_t{0});
        net::GilbertLoss& chain = data_chain_[slot];
        std::size_t pkt = 0;
        std::size_t lost_pkts = 0;
        bool any_loss = false;
        while (pkt < packets) {
            const net::GilbertLoss::Run run =
                chain.next_run(static_cast<std::uint64_t>(packets - pkt));
            const std::size_t len = static_cast<std::size_t>(run.length);
            if (run.lost) {
                any_loss = true;
                lost_pkts += len;
                set_bits(tx, pkt / f_, (pkt + len - 1) / f_);
            }
            pkt += len;
        }

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
            if (nack_on &&
                nack_wd_[slot] < FecLiteConfig::kNackWatchdogWindows) {
                nack_reactive = true;
                const std::size_t cap = FecLiteConfig::kNackCreditCap;
                const std::size_t bank = nack_credit_[slot];
                const std::size_t add =
                    std::min(cap - std::min(cap, bank),
                             fec_repairs_per_window_);
                nack_credit_[slot] = static_cast<std::uint32_t>(bank + add);
                t.nack_expired += fec_repairs_per_window_ - add;
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
        //    the transmission-order observation `obs` is taken first, so
        //    feedback still reports the raw channel.
        std::size_t obs = 0;
        std::size_t clf = 0;
        std::size_t losses = 0;
        bool recovered = false;
        if (any_loss) {
            losses = count_set_bits(tx, words_);
            obs = max_set_run(tx, words_);
            if (fec_on && fec_survived >= lost_pkts) {
                recovered = true;
                losses = 0;
            } else if (cfg_.spread) {
                std::fill_n(pb, words_, std::uint64_t{0});
                perms_[bound].scatter_set_bits(tx, pb, words_);
                clf = max_set_run(pb, words_);
            } else {
                clf = obs;
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
        s.clf_hist.record(clf);
        s.bound_hist.record(bound);
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
        if (tel != nullptr) {
            tel->observe_window(static_cast<std::uint64_t>(clf),
                                static_cast<std::uint64_t>(bound));
            if (any_loss && !recovered) {
                record_loss_runs(cfg_.spread ? pb : tx, words_, tel);
            }
        }

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
    if (tel != nullptr) tel->counters.merge(c);
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
