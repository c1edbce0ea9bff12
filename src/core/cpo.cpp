#include "core/cpo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/burst.hpp"
#include "core/interleaver.hpp"

namespace espread {

namespace {

/// Adds `g` to `out` if it is a usable stride for a window of n.
void add_candidate(std::vector<std::size_t>& out, std::size_t g, std::size_t n) {
    if (g >= 2 && g <= n - 1) out.push_back(g);
}

/// Class-visit orders evaluated for the residue-class family.  Besides the
/// natural order, orders whose consecutive classes are non-adjacent
/// residues remove playback adjacencies at class boundaries.
std::vector<std::vector<std::size_t>> class_orders(std::size_t stride) {
    std::vector<std::size_t> natural(stride);
    std::iota(natural.begin(), natural.end(), std::size_t{0});

    std::vector<std::size_t> reversed(natural.rbegin(), natural.rend());

    std::vector<std::size_t> evens_then_odds;
    for (std::size_t r = 0; r < stride; r += 2) evens_then_odds.push_back(r);
    for (std::size_t r = 1; r < stride; r += 2) evens_then_odds.push_back(r);

    std::vector<std::size_t> odds_then_evens;
    for (std::size_t r = 1; r < stride; r += 2) odds_then_evens.push_back(r);
    for (std::size_t r = 0; r < stride; r += 2) odds_then_evens.push_back(r);

    std::vector<std::vector<std::size_t>> orders{std::move(natural)};
    for (auto* extra : {&reversed, &evens_then_odds, &odds_then_evens}) {
        if (*extra != orders.front()) orders.push_back(std::move(*extra));
    }
    return orders;
}

}  // namespace

std::vector<std::size_t> cpo_candidate_strides(std::size_t n, std::size_t b,
                                               std::size_t exhaustive_stride_limit) {
    std::vector<std::size_t> cands;
    if (n < 3) return cands;
    if (n <= exhaustive_stride_limit) {
        cands.resize(n - 2);
        std::iota(cands.begin(), cands.end(), std::size_t{2});
        return cands;
    }
    const std::size_t root = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    for (std::size_t d = 0; d <= 2; ++d) {
        add_candidate(cands, b > d ? b - d : 2, n);
        add_candidate(cands, b + d, n);
        add_candidate(cands, root > d ? root - d : 2, n);
        add_candidate(cands, root + d, n);
    }
    // Strides that split the window into k near-equal residue classes.
    const std::size_t max_classes = std::min<std::size_t>(b + 2, 64);
    for (std::size_t k = 1; k <= max_classes; ++k) {
        add_candidate(cands, (n + k - 1) / k, n);
        add_candidate(cands, n / k, n);
    }
    // Ascending and distinct: the search order, and with it the strict-<
    // tie-break in calculate_permutation, depends on it.
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    return cands;
}

CpoResult calculate_permutation(std::size_t n, std::size_t b,
                                std::size_t exhaustive_stride_limit) {
    b = std::min(b, n);
    CpoResult best{Permutation::identity(n), std::min(b, n), 1, CpoKind::kIdentity};
    if (n <= 2 || b == 0 || b >= n) return best;

    best.clf = worst_case_clf(best.perm, b);  // == b for the identity
    const std::size_t floor_bound = lower_bound_clf(n, b);

    for (const std::size_t g : cpo_candidate_strides(n, b, exhaustive_stride_limit)) {
        if (std::gcd(g, n) == 1) {
            const Permutation p = cyclic_stride_order(n, g);
            const std::size_t clf = worst_case_clf(p, b);
            if (clf < best.clf) best = CpoResult{p, clf, g, CpoKind::kCyclicStride};
        }
        for (const auto& order : class_orders(g)) {
            const Permutation p = residue_class_order(n, g, order);
            const std::size_t clf = worst_case_clf(p, b);
            if (clf < best.clf) best = CpoResult{p, clf, g, CpoKind::kResidueClass};
            if (best.clf <= floor_bound) break;
        }
        if (best.clf <= floor_bound) break;  // cannot do better than the packing bound
    }
    return best;
}

std::size_t cpo_clf(std::size_t n, std::size_t b) {
    return calculate_permutation(n, b).clf;
}

std::size_t window_for_clf(std::size_t b, std::size_t k, std::size_t max_n) {
    if (b == 0) return 1;
    if (k == 0) return 0;  // any lost LDU already yields CLF >= 1
    if (k >= b) return b;  // even total loss of a b-window is acceptable
    for (std::size_t n = b; n <= max_n; ++n) {
        if (cpo_clf(n, b) <= k) return n;
    }
    return 0;
}

}  // namespace espread
