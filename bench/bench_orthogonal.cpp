// Validates the §4.3 orthogonality claim as an experiment matrix:
// {un-scrambled, scrambled} x {plain, retransmission, FEC, both} on the
// same network, reporting CLF (what spreading protects) and ALF (what the
// redundancy schemes protect) plus bandwidth spent.  FEC is the session's
// sliding-window RLC at 50% repair overhead (1 repair per 2 source
// packets, the overhead of a 4+2 block code); its in-order arm is
// Scheme::kRlc and its spread arm Scheme::kHybridSpreadRlc.
//
// Claim gate (exit nonzero on failure, so CI enforces it): in every
// redundancy row, spread has lower mean CLF than in-order, and the two
// send the same bits to within 2% — spreading composes with each
// redundancy scheme rather than competing with it, and costs no bandwidth.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "exp/flags.hpp"
#include "protocol/session.hpp"

using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

constexpr double kBitsTolerance = 0.02;

struct Mode {
    const char* name;
    bool retransmit;
    bool fec;
};

struct Arm {
    double clf_mean = 0.0;
    double mbits = 0.0;
};

Arm run_arm(const Mode& mode, bool spread) {
    SessionConfig cfg;
    if (mode.fec) {
        cfg.scheme = spread ? Scheme::kHybridSpreadRlc : Scheme::kRlc;
        cfg.rlc = {64, 1, 2};
    } else {
        cfg.scheme = spread ? Scheme::kLayeredSpread : Scheme::kInOrder;
    }
    cfg.retransmit_critical = mode.retransmit;
    cfg.data_link.bandwidth_bps = 2e6;
    cfg.feedback_link.bandwidth_bps = 2e6;
    cfg.num_windows = 100;
    cfg.seed = 3;
    const auto r = run_session(cfg);
    const auto s = r.clf_stats();
    const double mbits = static_cast<double>(r.data_channel.bits_sent) / 1e6;
    std::printf("%-14s | %-8s | %5.2f / %-5.2f | %.3f | %8.1f\n", mode.name,
                spread ? "spread" : "in-order", s.mean(), s.deviation(),
                r.total.alf, mbits);
    return Arm{s.mean(), mbits};
}

}  // namespace

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    std::printf("== §4.3: error spreading as an orthogonal dimension ==\n");
    std::printf("(Jurassic Park, 100 windows, Gilbert(0.92, 0.6), 2.0 Mb/s link)\n\n");
    std::printf("redundancy     | scheme   | CLF mean/dev  | ALF   | Mbit sent\n");
    std::printf("---------------+----------+---------------+-------+----------\n");

    bool ok = true;
    for (const Mode mode : {Mode{"none", false, false},
                            Mode{"retransmit", true, false},
                            Mode{"RLC(1/2)", false, true},
                            Mode{"retx + RLC", true, true}}) {
        const Arm in_order = run_arm(mode, false);
        const Arm spread = run_arm(mode, true);
        if (!(spread.clf_mean < in_order.clf_mean)) {
            std::fprintf(stderr,
                         "bench_orthogonal: FAIL %s: spread CLF %.3f not "
                         "below in-order %.3f\n",
                         mode.name, spread.clf_mean, in_order.clf_mean);
            ok = false;
        }
        if (std::fabs(spread.mbits - in_order.mbits) >
            kBitsTolerance * in_order.mbits) {
            std::fprintf(stderr,
                         "bench_orthogonal: FAIL %s: bits sent differ by more "
                         "than %.0f%% (%.1f vs %.1f Mbit)\n",
                         mode.name, kBitsTolerance * 100.0, spread.mbits,
                         in_order.mbits);
            ok = false;
        }
    }
    std::printf("\nclaim: in every redundancy row spread has lower CLF than "
                "in-order at the same bandwidth (within %.0f%%): %s\n",
                kBitsTolerance * 100.0, ok ? "PASS" : "FAIL");
    return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
