// Cross-validation: closed-form Markov analysis vs Monte-Carlo simulation.
//
// The per-window CLF distribution of in-order transmission under the
// Gilbert chain has an exact DP solution (analysis/markov.hpp).  This
// bench prints it next to the sampled distribution from the same chain
// implementation the protocol uses — agreement here certifies the whole
// random-process plumbing (rng, chain, masks, metrics) independently of
// the paper's numbers.
#include <cstdio>

#include "analysis/markov.hpp"
#include "analysis/multiburst.hpp"
#include "core/permutation.hpp"
#include "exp/flags.hpp"
#include "sim/contracts.hpp"

using espread::analysis::clf_distribution_in_order;
using espread::analysis::expected_clf_in_order;
using espread::analysis::expected_losses_in_order;

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    constexpr std::size_t kN = 24;
    constexpr std::size_t kTrials = 200000;

    std::printf("== validation: exact Markov DP vs Monte-Carlo (n = %zu LDUs) ==\n\n",
                kN);
    for (const double pbad : {0.6, 0.7}) {
        const espread::net::GilbertParams params{0.92, pbad};
        // The sampled loop below runs one continuous chain, so windows
        // start from the stationary state; seed the DP to match.
        const double pi_good = espread::analysis::stationary_p_good(params);
        const auto exact = clf_distribution_in_order(params, kN, pi_good);

        // Sample the same chain.
        std::vector<std::size_t> counts(kN + 1, 0);
        espread::sim::Rng rng{12345};
        espread::net::GilbertLoss chain{
            params, rng.split(espread::contracts::kAnalysisLaneGilbertChain)};
        espread::sim::RunningStats sampled_clf;
        for (std::size_t t = 0; t < kTrials; ++t) {
            std::size_t run = 0;
            std::size_t best = 0;
            for (std::size_t i = 0; i < kN; ++i) {
                if (chain.drop_next()) {
                    best = std::max(best, ++run);
                } else {
                    run = 0;
                }
            }
            ++counts[best];
            sampled_clf.add(static_cast<double>(best));
        }

        std::printf("P_bad = %.1f   E[CLF] exact %.4f vs sampled %.4f   "
                    "E[losses] exact %.2f\n",
                    pbad, expected_clf_in_order(params, kN, pi_good),
                    sampled_clf.mean(),
                    expected_losses_in_order(params, kN, pi_good));
        std::printf("  CLF k :  P_exact   P_sampled\n");
        for (std::size_t k = 0; k <= kN; ++k) {
            const double sampled =
                static_cast<double>(counts[k]) / static_cast<double>(kTrials);
            if (exact[k] < 5e-4 && sampled < 5e-4) continue;
            std::printf("  %5zu :  %.4f    %.4f\n", k, exact[k], sampled);
        }
        std::printf("\n");
    }
    std::printf("agreement to ~3 decimal places certifies the loss pipeline.\n");
    return 0;
}
