// Orthogonality (paper §4.3): error spreading composes with classical
// redundancy-based error handling.
//
// The paper's Figure 4 taxonomy: scrambling (block D) is orthogonal to
// feedback/retransmission (block B) and forward error correction (block C).
// This example runs the 2x2x2 matrix {in-order, spread} x {no retransmit,
// retransmit} x {no FEC, FEC} on an identical network and shows that each
// mechanism contributes independently — and what each one costs.  FEC is
// the session's sliding-window RLC at 50% repair overhead (the overhead of
// a 4+2 block code): Scheme::kRlc in order, Scheme::kHybridSpreadRlc spread.
//
// Build & run:  ./build/examples/orthogonal_fec
#include <cstdio>

#include "protocol/session.hpp"

using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

int main() {
    std::printf("=== Composing error spreading with retransmission and FEC ===\n");
    std::printf("(Jurassic Park, 100 windows, Gilbert(0.92, 0.6), 2.0 Mb/s link\n"
                " so the FEC repairs have bandwidth to live in)\n\n");
    std::printf("scheme   | retransmit | RLC(1/2) | CLF mean | CLF dev | ALF   | bits sent\n");
    std::printf("---------+------------+----------+----------+---------+-------+----------\n");

    for (const bool spread : {false, true}) {
        for (const bool retransmit : {false, true}) {
            for (const bool fec : {false, true}) {
                SessionConfig cfg;
                if (fec) {
                    cfg.scheme =
                        spread ? Scheme::kHybridSpreadRlc : Scheme::kRlc;
                    cfg.rlc = {64, 1, 2};
                } else {
                    cfg.scheme =
                        spread ? Scheme::kLayeredSpread : Scheme::kInOrder;
                }
                cfg.retransmit_critical = retransmit;
                cfg.data_link.bandwidth_bps = 2e6;
                cfg.feedback_link.bandwidth_bps = 2e6;
                cfg.num_windows = 100;
                cfg.seed = 3;
                const auto r = run_session(cfg);
                const auto s = r.clf_stats();
                std::printf("%-8s | %-10s | %-8s | %8.2f | %7.2f | %.3f | %9zu\n",
                            spread ? "spread" : "in-order",
                            retransmit ? "yes" : "no", fec ? "yes" : "no",
                            s.mean(), s.deviation(), r.total.alf,
                            r.data_channel.bits_sent / 1000);
            }
        }
    }

    std::printf(
        "\nReading the table: retransmission and FEC cut the aggregate loss\n"
        "(ALF) by spending bandwidth; spreading cuts the consecutive loss\n"
        "(CLF) for free.  Stacked, they protect both dimensions at once —\n"
        "the orthogonality the paper claims.\n");
    return 0;
}
