// Reproduces the paper's §1 motivation from first principles: bursty loss
// is what drop-tail bottleneck queues DO to a media stream, RED gateways
// de-cluster it, and error spreading converts drop-tail's bursts into
// isolated playback losses either way.
//
// Pipeline: a 24-frame window's LDUs pass one per slot through a congested
// bottleneck shared with on/off cross-traffic; the resulting per-LDU loss
// mask is un-permuted and scored with the CLF metric — in-order vs k-CPO.
#include <cstdio>

#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/metrics.hpp"
#include "exp/flags.hpp"
#include "net/gateway.hpp"
#include "sim/stats.hpp"

using espread::net::Gateway;
using espread::net::GatewayConfig;
using espread::net::QueueDiscipline;

namespace {

struct Row {
    double loss_rate = 0.0;
    double conditional = 0.0;
    double mean_burst = 0.0;
    espread::sim::RunningStats clf_in_order;
    espread::sim::RunningStats clf_spread;
};

Row run(QueueDiscipline d) {
    constexpr std::size_t kWindow = 24;
    constexpr std::size_t kWindows = 4000;
    GatewayConfig cfg;
    cfg.discipline = d;
    Gateway gateway{cfg, espread::sim::Rng{7}};
    const espread::Permutation spread =
        espread::calculate_permutation(kWindow, 6).perm;

    Row row;
    std::size_t lost = 0;
    std::size_t after_loss = 0;
    std::size_t after_loss_lost = 0;
    espread::sim::RunningStats bursts;
    std::size_t burst_run = 0;
    bool prev = false;

    for (std::size_t w = 0; w < kWindows; ++w) {
        espread::LossMask tx(kWindow, true);
        for (std::size_t slot = 0; slot < kWindow; ++slot) {
            const bool dropped = gateway.offer_packet();
            tx[slot] = !dropped;
            if (dropped) {
                ++lost;
                ++burst_run;
            } else if (burst_run > 0) {
                bursts.add(static_cast<double>(burst_run));
                burst_run = 0;
            }
            if (prev) {
                ++after_loss;
                if (dropped) ++after_loss_lost;
            }
            prev = dropped;
        }
        // In-order: the tx mask IS the playback mask.
        row.clf_in_order.add(
            static_cast<double>(espread::consecutive_loss(tx)));
        // Spread: slot s carried playback index spread[s].
        espread::LossMask playback(kWindow, true);
        for (std::size_t slot = 0; slot < kWindow; ++slot) {
            playback[spread[slot]] = tx[slot];
        }
        row.clf_spread.add(
            static_cast<double>(espread::consecutive_loss(playback)));
    }
    row.loss_rate =
        static_cast<double>(lost) / static_cast<double>(kWindows * kWindow);
    row.conditional = after_loss == 0 ? 0.0
                                      : static_cast<double>(after_loss_lost) /
                                            static_cast<double>(after_loss);
    row.mean_burst = bursts.mean();
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    std::printf("== §1 motivation: gateway discipline -> loss burstiness -> CLF ==\n");
    std::printf("(congested bottleneck, on/off cross traffic, 4000 windows of 24 LDUs)\n\n");
    std::printf("discipline | loss  | P(loss|loss) | mean burst | CLF in-order m/d | CLF spread m/d\n");
    std::printf("-----------+-------+--------------+------------+------------------+---------------\n");
    for (const QueueDiscipline d :
         {QueueDiscipline::kDropTail, QueueDiscipline::kRed}) {
        const Row row = run(d);
        std::printf("%-10s | %.3f |    %.3f     |    %.2f    |   %5.2f / %-5.2f  | %5.2f / %.2f\n",
                    d == QueueDiscipline::kDropTail ? "drop-tail" : "RED",
                    row.loss_rate, row.conditional, row.mean_burst,
                    row.clf_in_order.mean(), row.clf_in_order.deviation(),
                    row.clf_spread.mean(), row.clf_spread.deviation());
    }
    std::printf(
        "\nexpected shape (paper §1): drop-tail clusters its drops\n"
        "(P(loss|loss) far above the marginal rate, long bursts, high CLF);\n"
        "RED de-clusters them; error spreading pulls CLF toward 1 under\n"
        "either discipline without touching the loss rate.\n");
    return 0;
}
