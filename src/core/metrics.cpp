#include "core/metrics.hpp"

#include <algorithm>

namespace espread {

std::vector<std::size_t> loss_runs(const LossMask& delivered) {
    std::vector<std::size_t> runs;
    std::size_t current = 0;
    for (const bool ok : delivered) {
        if (!ok) {
            ++current;
        } else if (current > 0) {
            runs.push_back(current);
            current = 0;
        }
    }
    if (current > 0) runs.push_back(current);
    return runs;
}

std::size_t consecutive_loss(const LossMask& delivered) {
    std::size_t best = 0;
    std::size_t current = 0;
    for (const bool ok : delivered) {
        if (!ok) {
            best = std::max(best, ++current);
        } else {
            current = 0;
        }
    }
    return best;
}

std::size_t aggregate_loss_count(const LossMask& delivered) {
    return static_cast<std::size_t>(
        std::count(delivered.begin(), delivered.end(), false));
}

ContinuityReport measure_continuity(const LossMask& delivered) {
    ContinuityReport r;
    r.slots = delivered.size();
    r.unit_losses = aggregate_loss_count(delivered);
    r.clf = consecutive_loss(delivered);
    r.alf = r.slots == 0 ? 0.0
                         : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

void ContinuityMeter::add_window(const LossMask& delivered) {
    const ContinuityReport w = measure_continuity(delivered);
    ++windows_;
    total_.slots += w.slots;
    total_.unit_losses += w.unit_losses;
    total_.clf = std::max(total_.clf, w.clf);
}

ContinuityReport ContinuityMeter::total() const noexcept {
    ContinuityReport r = total_;
    r.alf = r.slots == 0
                ? 0.0
                : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

}  // namespace espread
