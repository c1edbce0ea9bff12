// Beyond Theorem 1: ordering quality under MULTIPLE bursts per window.
//
// The paper's guarantee covers one burst of length <= b per window; a real
// Gilbert channel emits several.  This bench compares orderings three ways:
//   1. worst case under one burst (the theorem's regime),
//   2. worst case under two disjoint bursts,
//   3. Monte-Carlo CLF under the actual Gilbert(.92, .6) process,
// showing (a) why single-burst-optimal stride-2-style orders can be
// fragile against pairs of bursts, and (b) that the k-CPO family remains
// the best or tied under the realistic process — evidence that the IBO vs
// CPO near-tie seen at the protocol level is a property of the multi-burst
// regime, not an implementation artifact.
#include <cstdio>

#include "analysis/multiburst.hpp"
#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "exp/flags.hpp"

using espread::Permutation;
using espread::analysis::gilbert_clf;
using espread::analysis::min_adjacent_distance;
using espread::analysis::worst_case_clf_two_bursts;

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    constexpr std::size_t kN = 16;  // one B layer of a 2-GOP window
    constexpr std::size_t kB = 4;   // typical adapted bound
    const espread::net::GilbertParams net{0.92, 0.6};
    constexpr std::size_t kTrials = 20000;

    espread::sim::Rng rng{1};
    const struct {
        const char* name;
        Permutation perm;
    } orders[] = {
        {"identity", Permutation::identity(kN)},
        {"residue-2 (odd/even)", espread::residue_class_order(kN, 2, {1, 0})},
        {"residue-4", espread::residue_class_order(kN, 4)},
        {"IBO", espread::ibo_order(kN)},
        {"folded dyadic", espread::folded_dyadic_order(kN)},
        {"k-CPO(16,4)", espread::calculate_permutation(kN, kB).perm},
        {"random", espread::random_order(kN, rng)},
    };

    std::printf("== multi-burst ordering quality (n = %zu, b = %zu) ==\n\n", kN, kB);
    std::printf("%-22s | 1-burst worst | 2-burst worst | minAdjDist | Gilbert CLF mean/dev\n",
                "order");
    std::printf("-----------------------+---------------+---------------+------------+---------------------\n");
    for (const auto& o : orders) {
        const auto mc = gilbert_clf(o.perm, net, kTrials, espread::sim::Rng{99});
        std::printf("%-22s | %13zu | %13zu | %10zu | %8.2f / %.2f\n", o.name,
                    espread::worst_case_clf(o.perm, kB),
                    worst_case_clf_two_bursts(o.perm, kB),
                    min_adjacent_distance(o.perm), mc.clf.mean(),
                    mc.clf.deviation());
    }

    std::printf(
        "\nreading: single-burst worst case rewards large strides; two bursts\n"
        "and the Gilbert process reward balanced adjacency profiles, which is\n"
        "where IBO and mid-stride k-CPO orders meet.  The adaptive protocol\n"
        "inherits whichever candidate wins the exact evaluation.\n");
    return 0;
}
