// Receiver-driven repair vs. the fixed credit schedule (DESIGN.md §13).
//
// The recovery plane replaces the sender's unconditional RLC repair
// schedule with receiver-authoritative NACKs: the client reports which
// packets are missing (and how rank-deficient its decoder is) at
// playout-budget-aware deadlines, and the sender spends *banked* repair
// credits only where loss actually happened.  This bench sweeps feedback
// blackout x RTT x repair overhead on the Fig. 8 Gilbert data channel
// with three arms, all kHybridSpreadRlc over a 16-LDU MJPEG window:
//
//   fixed      — recovery off: every accrued repair credit is sent
//                immediately (the constant-bandwidth schedule)
//   nack       — recovery on, retransmissions off: credits are banked and
//                released only against received NACKs; the watchdog
//                degrades to the fixed schedule when feedback dies
//   nack+retx  — nack plus whole-frame sideband retransmissions of
//                deadline-feasible frames (reported, not gated: resends
//                spend extra bandwidth, so it is not an equal-overhead
//                comparison)
//
// Arms share per-trial seeds, so every comparison is paired.  Claims
// checked (exit nonzero on failure, so CI enforces them):
//   N1  on every non-blackout cell the nack arm's mean playout CLF is no
//       worse than fixed (small tie epsilon) at no more measured data
//       bandwidth — reactive bursts beat the fixed trickle, for free;
//   N2  under full feedback blackout the nack arm degrades gracefully:
//       mean playout CLF within noise of fixed, NACK traffic bounded by
//       the retry cap (windows * (kMaxRetries + 1) per trial — no retry
//       storm), and the watchdog flips most windows to proactive;
//   N3  the fixed arm is untouched by the recovery build: a rerun is
//       bit-exact and no nack_*/recovery_* metric key leaks into it.
//
// BENCH_nack.json carries the full grid plus the claims object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/session.hpp"
#include "sim/stats.hpp"

using espread::exp::JsonWriter;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;

namespace {

constexpr std::size_t kWindows = 12;
constexpr std::uint64_t kSeedBase = 100;

/// Tie epsilon for N1: the paired mean-playout-CLF comparison may land
/// exactly at par on well-provisioned cells; a hair of slack keeps the
/// gate about regressions, not coin flips.
constexpr double kN1Eps = 0.05;
/// Noise band for N2: under blackout both arms run the same proactive
/// schedule except for the first watchdog_windows reactive windows, so
/// the paired means must agree to within a fraction of a CLF unit.
constexpr double kN2Eps = 0.25;

struct Cell {
    const char* arm;       ///< "fixed" | "nack" | "nack+retx"
    const char* blackout;  ///< "none" | "mid" | "full" (feedback path)
    double rtt_ms;
    std::size_t num;  ///< RLC overhead ratio per overhead_den sources
    std::size_t den;
    // Pooled results over all trials (paired seeds across arms).
    espread::sim::RunningStats pclf;  ///< per-window playout CLF
    std::uint64_t data_bits = 0;
    std::uint64_t sideband_sent = 0;
    std::uint64_t feedback_sent = 0;
    std::uint64_t playout_misses = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t nacks_serviced = 0;
    std::uint64_t repairs_sent = 0;
    std::uint64_t retx_packets = 0;
    std::uint64_t windows_proactive = 0;
    std::uint64_t packets_recovered = 0;
};

SessionConfig cell_config(const Cell& c, std::uint64_t seed) {
    SessionConfig cfg;
    cfg.stream.kind = espread::proto::StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 16;
    cfg.stream.frame_rate = 24.0;
    cfg.scheme = Scheme::kHybridSpreadRlc;
    cfg.rlc = {64, c.num, c.den};
    cfg.num_windows = kWindows;
    cfg.seed = seed;
    cfg.collect_metrics = true;
    cfg.data_loss = {0.9, 0.45};
    cfg.data_link.propagation_delay =
        espread::sim::from_millis(c.rtt_ms / 2.0);
    cfg.feedback_link.propagation_delay =
        espread::sim::from_millis(c.rtt_ms / 2.0);
    // The gated pair compares repair scheduling alone; only the reported
    // third arm re-enables the retransmission path.
    cfg.retransmit_critical = std::strcmp(c.arm, "nack+retx") == 0;
    cfg.recovery.enabled = std::strcmp(c.arm, "fixed") != 0;
    if (std::strcmp(c.blackout, "mid") == 0) {
        cfg.blackout_feedback_windows(4, 7);
    } else if (std::strcmp(c.blackout, "full") == 0) {
        cfg.blackout_feedback_windows(0, kWindows - 1);
    }
    return cfg;
}

void run_cell(Cell& c, std::size_t trials) {
    for (std::size_t t = 0; t < trials; ++t) {
        const SessionResult r = run_session(cell_config(c, kSeedBase + t));
        for (const std::size_t clf : r.playout_window_clf) {
            c.pclf.add(static_cast<double>(clf));
        }
        c.data_bits += r.data_channel.bits_sent;
        c.sideband_sent += r.data_channel.sideband_sent;
        c.feedback_sent += r.feedback_channel.sent;
        c.playout_misses += r.metrics.counter("playout_misses");
        c.nacks_sent += r.metrics.counter("nack_requests_sent");
        c.nacks_serviced += r.metrics.counter("nack_requests_serviced");
        c.repairs_sent += r.metrics.counter("nack_repairs_sent");
        c.retx_packets += r.metrics.counter("nack_retx_packets");
        c.windows_proactive +=
            r.metrics.counter("recovery_windows_proactive");
        c.packets_recovered += r.metrics.counter("rlc_packets_recovered");
    }
}

const Cell* find_cell(const std::vector<Cell>& cells, const char* arm,
                      const char* blackout, double rtt_ms, std::size_t num) {
    for (const Cell& c : cells) {
        if (std::strcmp(c.arm, arm) == 0 &&
            std::strcmp(c.blackout, blackout) == 0 && c.rtt_ms == rtt_ms &&
            c.num == num) {
            return &c;
        }
    }
    return nullptr;
}

void append_cell(JsonWriter& json, const Cell& c) {
    json.begin_object();
    json.key("arm").value(c.arm);
    json.key("blackout").value(c.blackout);
    json.key("rtt_ms").value(c.rtt_ms);
    json.key("overhead_num").value(static_cast<std::uint64_t>(c.num));
    json.key("overhead_den").value(static_cast<std::uint64_t>(c.den));
    json.key("playout_clf_mean").value(c.pclf.mean());
    json.key("playout_clf_dev").value(c.pclf.deviation());
    json.key("playout_misses").value(c.playout_misses);
    json.key("data_bits_sent").value(c.data_bits);
    json.key("sideband_sent").value(c.sideband_sent);
    json.key("feedback_sent").value(c.feedback_sent);
    json.key("packets_recovered").value(c.packets_recovered);
    json.key("nack_requests_sent").value(c.nacks_sent);
    json.key("nack_requests_serviced").value(c.nacks_serviced);
    json.key("nack_repairs_sent").value(c.repairs_sent);
    json.key("nack_retx_packets").value(c.retx_packets);
    json.key("recovery_windows_proactive").value(c.windows_proactive);
    json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = espread::exp::parse_runner_args(argc, argv);
    const std::string out =
        opts.out_path.empty() ? "BENCH_nack.json" : opts.out_path;

    const char* arms[] = {"fixed", "nack", "nack+retx"};
    const char* blackouts[] = {"none", "mid", "full"};
    const double rtts[] = {23.0, 60.0};
    const std::pair<std::size_t, std::size_t> overheads[] = {{1, 10}, {2, 10}};

    std::vector<Cell> cells;
    for (const char* b : blackouts) {
        for (const double rtt : rtts) {
            for (const auto& [num, den] : overheads) {
                for (const char* arm : arms) {
                    Cell c;
                    c.arm = arm;
                    c.blackout = b;
                    c.rtt_ms = rtt;
                    c.num = num;
                    c.den = den;
                    cells.push_back(c);
                }
            }
        }
    }

    std::printf(
        "== bench_nack: receiver-driven repair vs. fixed credit schedule ==\n");
    std::printf("   (%zu trials x %zu windows per cell, paired seeds)\n\n",
                opts.trials, kWindows);
    std::printf("%-9s | %-5s | %6s | %8s | %9s | %9s | %6s | %7s | %5s\n",
                "arm", "bkout", "rtt ms", "overhead", "pclf mean", "data bits",
                "nacks", "repairs", "proact");
    std::printf("----------+-------+--------+----------+-----------+-----------"
                "+--------+---------+------\n");
    for (Cell& c : cells) {
        run_cell(c, opts.trials);
        std::printf(
            "%-9s | %-5s | %6.0f | %7.0f%% | %9.3f | %9llu | %6llu | %7llu | "
            "%5llu\n",
            c.arm, c.blackout, c.rtt_ms,
            100.0 * static_cast<double>(c.num) / static_cast<double>(c.den),
            c.pclf.mean(), static_cast<unsigned long long>(c.data_bits),
            static_cast<unsigned long long>(c.nacks_sent),
            static_cast<unsigned long long>(c.repairs_sent),
            static_cast<unsigned long long>(c.windows_proactive));
    }

    // N1: on every non-blackout cell, receiver-driven repair matches or
    // beats the fixed schedule on mean playout CLF while sending no more
    // data-path bits (banked credits never exceed the fixed accrual, so
    // the comparison is at equal-or-less measured bandwidth overhead).
    bool n1 = true;
    for (const double rtt : rtts) {
        for (const auto& [num, den] : overheads) {
            (void)den;
            const Cell* fixed = find_cell(cells, "fixed", "none", rtt, num);
            const Cell* nack = find_cell(cells, "nack", "none", rtt, num);
            if (nack->pclf.mean() > fixed->pclf.mean() + kN1Eps) {
                n1 = false;
                std::fprintf(stderr,
                             "bench_nack: N1 FAIL rtt=%.0f ovh=%zu nack pclf "
                             "%.3f > fixed %.3f\n",
                             rtt, num, nack->pclf.mean(), fixed->pclf.mean());
            }
            if (nack->data_bits > fixed->data_bits) {
                n1 = false;
                std::fprintf(stderr,
                             "bench_nack: N1 FAIL rtt=%.0f ovh=%zu nack bits "
                             "%llu > fixed %llu\n",
                             rtt, num,
                             static_cast<unsigned long long>(nack->data_bits),
                             static_cast<unsigned long long>(
                                 fixed->data_bits));
            }
        }
    }

    // N2: full feedback blackout — graceful degradation, no retry storm.
    // The per-trial NACK bound is windows * (kMaxRetries + 1), with
    // RecoveryConfig::kMaxRetries = 3.
    const std::uint64_t nack_cap_per_trial =
        kWindows * (espread::proto::RecoveryConfig::kMaxRetries + 1);
    bool n2 = true;
    for (const double rtt : rtts) {
        for (const auto& [num, den] : overheads) {
            (void)den;
            const Cell* fixed = find_cell(cells, "fixed", "full", rtt, num);
            const Cell* nack = find_cell(cells, "nack", "full", rtt, num);
            const double diff = nack->pclf.mean() - fixed->pclf.mean();
            if (std::fabs(diff) > kN2Eps) {
                n2 = false;
                std::fprintf(stderr,
                             "bench_nack: N2 FAIL rtt=%.0f ovh=%zu blackout "
                             "pclf diff %.3f exceeds %.3f\n",
                             rtt, num, diff, kN2Eps);
            }
            if (nack->nacks_sent > opts.trials * nack_cap_per_trial) {
                n2 = false;
                std::fprintf(
                    stderr,
                    "bench_nack: N2 FAIL rtt=%.0f ovh=%zu retry storm: %llu "
                    "nacks > cap %llu\n",
                    rtt, num,
                    static_cast<unsigned long long>(nack->nacks_sent),
                    static_cast<unsigned long long>(opts.trials *
                                                    nack_cap_per_trial));
            }
            if (nack->windows_proactive == 0) {
                n2 = false;
                std::fprintf(stderr,
                             "bench_nack: N2 FAIL rtt=%.0f ovh=%zu watchdog "
                             "never degraded to proactive\n",
                             rtt, num);
            }
        }
    }

    // N3: zero-cost-off — the fixed arm rerun is bit-exact and carries no
    // recovery-plane metric keys.
    bool n3 = true;
    {
        Cell rerun = cells[0];  // fixed / none / 23ms / 1:10
        rerun.pclf = {};
        rerun.data_bits = rerun.sideband_sent = rerun.feedback_sent = 0;
        rerun.playout_misses = rerun.packets_recovered = 0;
        run_cell(rerun, opts.trials);
        const Cell& first = cells[0];
        if (rerun.pclf.mean() != first.pclf.mean() ||
            rerun.data_bits != first.data_bits ||
            rerun.feedback_sent != first.feedback_sent ||
            rerun.playout_misses != first.playout_misses) {
            n3 = false;
            std::fprintf(stderr, "bench_nack: N3 FAIL fixed rerun diverged\n");
        }
        const SessionResult probe =
            run_session(cell_config(first, kSeedBase));
        for (const auto& [name, value] : probe.metrics.counters()) {
            (void)value;
            if (name.rfind("nack_", 0) == 0 ||
                name.rfind("recovery_", 0) == 0 ||
                name.rfind("data_sideband", 0) == 0) {
                n3 = false;
                std::fprintf(stderr,
                             "bench_nack: N3 FAIL fixed arm carries %s\n",
                             std::string(name).c_str());
            }
        }
        // RLC repairs legitimately ride the side band in every arm; only
        // NACK traffic must be absent from the fixed arm.
        if (first.nacks_sent != 0) {
            n3 = false;
            std::fprintf(stderr,
                         "bench_nack: N3 FAIL fixed arm sent NACK traffic\n");
        }
    }

    std::printf("\nclaims: N1 nack<=fixed off-blackout %s, N2 graceful "
                "blackout degradation %s, N3 fixed arm bit-exact %s\n",
                n1 ? "PASS" : "FAIL", n2 ? "PASS" : "FAIL",
                n3 ? "PASS" : "FAIL");

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("nack");
    json.key("trials").value(static_cast<std::uint64_t>(opts.trials));
    json.key("windows").value(static_cast<std::uint64_t>(kWindows));
    json.key("nack_cap_per_trial").value(nack_cap_per_trial);
    json.key("claims").begin_object();
    json.key("nack_matches_fixed_bandwidth_beats_clf").value(n1);
    json.key("blackout_degrades_gracefully").value(n2);
    json.key("fixed_arm_bit_exact").value(n3);
    json.end_object();
    json.key("cells").begin_array();
    for (const Cell& c : cells) append_cell(json, c);
    json.end_array();
    json.end_object();
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    return (n1 && n2 && n3) ? EXIT_SUCCESS : EXIT_FAILURE;
}
