#include "core/burst.hpp"

#include <algorithm>
#include <vector>

namespace espread {

LossMask burst_loss_mask(const Permutation& perm, std::size_t start, std::size_t length) {
    LossMask delivered(perm.size(), true);
    const std::size_t end = std::min(perm.size(), start + length);
    for (std::size_t slot = std::min(start, perm.size()); slot < end; ++slot) {
        delivered[perm[slot]] = false;
    }
    return delivered;
}

std::size_t worst_case_clf(const Permutation& perm, std::size_t max_burst) {
    const std::size_t n = perm.size();
    if (n == 0 || max_burst == 0) return 0;
    const std::size_t len = std::min(max_burst, n);
    // One playback-order loss mask for every burst start: mark the burst,
    // measure each loss run from its first LDU, then unmark.
    std::vector<bool> lost(n, false);
    std::size_t worst = 0;
    for (std::size_t start = 0; start + len <= n; ++start) {
        for (std::size_t slot = start; slot < start + len; ++slot) lost[perm[slot]] = true;
        for (std::size_t slot = start; slot < start + len; ++slot) {
            const std::size_t head = perm[slot];
            if (head > 0 && lost[head - 1]) continue;  // not the first LDU of its run
            std::size_t run = 1;
            while (head + run < n && lost[head + run]) ++run;
            worst = std::max(worst, run);
        }
        for (std::size_t slot = start; slot < start + len; ++slot) lost[perm[slot]] = false;
    }
    return worst;
}

std::size_t lower_bound_clf(std::size_t n, std::size_t b) {
    if (b == 0 || n == 0) return 0;
    if (b >= n) return n;
    // b losses split into at most n - b + 1 runs separated by survivors.
    const std::size_t runs = n - b + 1;
    return (b + runs - 1) / runs;
}

}  // namespace espread
