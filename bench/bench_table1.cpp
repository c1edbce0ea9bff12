// Reproduces paper Table 1: how the order of frames sent affects CLF.
//
// 17 frames, one bursty loss of 7 consecutive transmissions.  Three rows:
// in-order transmission, the 5-stride cyclic permutation (the paper's
// example order), and the un-permuted view the receiver reconstructs.
// Exits 1 unless the permuted order loses fewer consecutive frames than
// in-order on that burst and its worst case over every burst of length 7
// equals calculatePermutation(17, 7)'s guarantee.
#include <cstdio>

#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "core/metrics.hpp"
#include "exp/flags.hpp"

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    constexpr std::size_t kN = 17;
    constexpr std::size_t kBurst = 7;
    // The paper's example burst: transmission slots 5..11 (0-based), i.e.
    // the 6th through 12th packets of the window.
    constexpr std::size_t kStart = 5;

    std::printf("== Table 1: frame order vs CLF (n = %zu, burst of %zu on slots %zu..%zu) ==\n\n",
                kN, kBurst, kStart, kStart + kBurst - 1);

    const espread::Permutation in_order = espread::Permutation::identity(kN);
    const espread::Permutation permuted = espread::cyclic_stride_order(kN, 5, 0);

    const auto row = [&](const char* name, const espread::Permutation& perm) {
        const espread::LossMask playback =
            espread::burst_loss_mask(perm, kStart, kBurst);
        std::printf("%-12s %s\n", name, perm.to_string_one_based().c_str());
        std::printf("%-12s lost playback frames:", "");
        for (std::size_t f = 0; f < playback.size(); ++f) {
            if (!playback[f]) std::printf(" %02zu", f + 1);
        }
        const auto r = espread::measure_continuity(playback);
        std::printf("   CLF = %zu / %zu\n\n", r.clf, kN);
        return r.clf;
    };

    const std::size_t clf_in_order = row("In order", in_order);
    const std::size_t clf_permuted = row("Permuted", permuted);
    std::printf("%-12s (receiver un-permutes; losses land spread out)\n\n",
                "Un-permuted");

    std::printf("worst-case CLF over every burst position of length <= %zu:\n", kBurst);
    std::printf("  in-order : %zu\n", espread::worst_case_clf(in_order, kBurst));
    const std::size_t worst_permuted = espread::worst_case_clf(permuted, kBurst);
    std::printf("  permuted : %zu\n", worst_permuted);
    const espread::CpoResult best = espread::calculate_permutation(kN, kBurst);
    std::printf("  calculatePermutation(%zu, %zu) guarantee: %zu (stride %zu)\n",
                kN, kBurst, best.clf, best.stride);
    std::printf("\npaper: in-order CLF %zu, permuted CLF ~1-2 (same aggregate loss).\n",
                kBurst);

    bool ok = true;
    if (!(clf_permuted < clf_in_order)) {
        std::fprintf(stderr, "claim failed: permuted CLF %zu is not below "
                     "in-order CLF %zu on slots %zu..%zu\n", clf_permuted,
                     clf_in_order, kStart, kStart + kBurst - 1);
        ok = false;
    }
    if (worst_permuted != best.clf) {
        std::fprintf(stderr, "claim failed: permuted worst-case CLF %zu at "
                     "b = %zu is not calculatePermutation's %zu\n",
                     worst_permuted, kBurst, best.clf);
        ok = false;
    }
    return ok ? 0 : 1;
}
