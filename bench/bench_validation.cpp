// Cross-validation: closed-form Markov analysis vs Monte-Carlo simulation.
//
// The per-window CLF distribution of in-order transmission under the
// Gilbert chain has an exact DP solution (analysis/markov.hpp).  This
// bench prints it next to the sampled distribution from the same chain
// implementation the protocol uses — agreement here certifies the whole
// random-process plumbing (rng, chain, masks, metrics) independently of
// the paper's numbers.  It exits 1 unless, at both P_bad values, the
// sampled mean CLF lies within 4 standard errors of the exact E[CLF] and
// every sampled P(CLF = k) within 4 binomial standard errors of the exact
// probability.
#include <cmath>
#include <cstdio>

#include "analysis/markov.hpp"
#include "core/permutation.hpp"
#include "exp/flags.hpp"
#include "net/gilbert.hpp"
#include "sim/contracts.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

using espread::analysis::clf_distribution_in_order;
using espread::analysis::expected_clf_in_order;
using espread::analysis::expected_losses_in_order;

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    constexpr std::size_t kN = 24;
    constexpr std::size_t kTrials = 200000;
    constexpr double kMaxZ = 4.0;  ///< agreement bound, in standard errors
    const double trials = static_cast<double>(kTrials);
    bool agree = true;

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

        const double exact_clf = expected_clf_in_order(params, kN, pi_good);
        const double mean_z = std::abs(sampled_clf.mean() - exact_clf) /
                              (sampled_clf.deviation() / std::sqrt(trials));
        agree = agree && mean_z <= kMaxZ;
        std::printf("P_bad = %.1f   E[CLF] exact %.4f vs sampled %.4f (%.2f SE)   "
                    "E[losses] exact %.2f\n",
                    pbad, exact_clf, sampled_clf.mean(), mean_z,
                    expected_losses_in_order(params, kN, pi_good));
        std::printf("  CLF k :  P_exact   P_sampled   z\n");
        for (std::size_t k = 0; k <= kN; ++k) {
            const double sampled = static_cast<double>(counts[k]) / trials;
            // An unreachable cell (exact 0) has a zero standard error: it
            // must stay unsampled.
            const double gap = std::abs(sampled - exact[k]);
            const double se = std::sqrt(exact[k] * (1.0 - exact[k]) / trials);
            const bool ok = gap <= kMaxZ * se;
            agree = agree && ok;
            if (ok && exact[k] < 5e-4 && sampled < 5e-4) continue;
            std::printf("  %5zu :  %.4f    %.4f    %5.2f%s\n", k, exact[k], sampled,
                        se > 0.0 ? gap / se : 0.0, ok ? "" : "   FAIL");
        }
        std::printf("\n");
    }
    std::printf("exact and sampled CLF distributions agree within %.0f standard "
                "errors: %s\n",
                kMaxZ, agree ? "yes" : "NO");
    return agree ? 0 : 1;
}
