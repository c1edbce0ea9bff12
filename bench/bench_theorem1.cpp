// Validates Theorem 1 (reconstructed): achievable worst-case CLF of the
// cyclic-permutation family vs the packing lower bound and the true
// optimum over all permutations (exhaustive search, small n).
//
// Regimes checked:
//   * b*b <= n          -> CLF 1 (tight);
//   * b <= ceil(n/2)    -> CLF 1 for the extended residue family (matches
//                          the packing bound, stronger than the paper's
//                          stated b*b <= n regime);
//   * b >= n            -> CLF n;
//   * b close to n      -> family gap vs the true optimum (quantified).
//
// Exits 1 if a regime check fails or an exhaustive cell breaks
// LB <= OPT <= CPO; the table and the curve are printed either way.
#include <cstdio>

#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/optimal.hpp"
#include "exp/flags.hpp"

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    std::printf("== Theorem 1 validation ==\n\n");
    std::printf("exhaustive range (true optimum by branch-and-bound):\n\n");
    std::printf(" n\\b |");
    for (std::size_t b = 1; b <= 10; ++b) std::printf("    %2zu    ", b);
    std::printf("   (cells: CPO/OPT/LB)\n");
    std::printf("-----+");
    for (std::size_t b = 1; b <= 10; ++b) std::printf("----------");
    std::printf("\n");

    std::size_t family_gap_cells = 0;
    std::size_t total_cells = 0;
    std::size_t unsandwiched_cells = 0;  // cells breaking LB <= OPT <= CPO
    for (std::size_t n = 2; n <= 10; ++n) {
        std::printf("%4zu |", n);
        for (std::size_t b = 1; b <= 10; ++b) {
            if (b > n) {
                std::printf("          ");
                continue;
            }
            const std::size_t cpo = espread::cpo_clf(n, b);
            const std::size_t opt = espread::optimal_clf(n, b);
            const std::size_t lb = espread::lower_bound_clf(n, b);
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%zu/%zu/%zu", cpo, opt, lb);
            std::printf(" %-9s", cell);
            ++total_cells;
            if (cpo != opt) ++family_gap_cells;
            if (lb > opt || opt > cpo) ++unsandwiched_cells;
        }
        std::printf("\n");
    }
    std::printf("\ncells where the cyclic family misses the true optimum: %zu / %zu\n",
                family_gap_cells, total_cells);
    std::printf("cells breaking LB <= OPT <= CPO: %zu / %zu : %s\n",
                unsandwiched_cells, total_cells,
                unsandwiched_cells == 0 ? "PASS" : "FAIL");

    std::printf("\nregime checks on larger windows (CPO guarantee only):\n");
    bool easy_ok = true;
    for (std::size_t n = 2; n <= 96; ++n) {
        for (std::size_t b = 1; 2 * b <= n; ++b) {
            if (espread::cpo_clf(n, b) != 1) {
                easy_ok = false;
                std::printf("  VIOLATION: n=%zu b=%zu\n", n, b);
            }
        }
    }
    std::printf("  CLF == 1 for every b <= n/2, n <= 96 : %s\n",
                easy_ok ? "PASS" : "FAIL");

    bool total_ok = true;
    for (std::size_t n = 2; n <= 64; ++n) {
        total_ok = total_ok && espread::cpo_clf(n, n) == n;
    }
    std::printf("  CLF == n at b == n                   : %s\n",
                total_ok ? "PASS" : "FAIL");

    std::printf("\nbuffer-requirement curve (min window for CLF <= k against burst b):\n");
    std::printf("  b | k=1 | k=2 | k=3\n");
    std::printf(" ---+-----+-----+----\n");
    for (std::size_t b = 2; b <= 10; ++b) {
        std::printf(" %2zu |", b);
        for (std::size_t k = 1; k <= 3; ++k) {
            std::printf(" %3zu |", espread::window_for_clf(b, k));
        }
        std::printf("\n");
    }
    const bool ok = easy_ok && total_ok && unsandwiched_cells == 0;
    if (!ok) std::printf("\nTheorem 1 validation FAILED\n");
    return ok ? 0 : 1;
}
