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
    return measure_continuity(delivered, 0, delivered.size());
}

ContinuityReport measure_continuity(const LossMask& delivered, std::size_t first,
                                    std::size_t last) {
    ContinuityReport r;
    r.slots = last - first;
    std::size_t current = 0;
    for (std::size_t i = first; i < last; ++i) {
        if (!delivered[i]) {
            ++r.unit_losses;
            r.clf = std::max(r.clf, ++current);
        } else {
            current = 0;
        }
    }
    r.alf = r.slots == 0 ? 0.0
                         : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

void ContinuityMeter::add_window(const LossMask& delivered) {
    add(measure_continuity(delivered));
}

void ContinuityMeter::add(const ContinuityReport& window) noexcept {
    ++windows_;
    total_.slots += window.slots;
    total_.unit_losses += window.unit_losses;
    total_.clf = std::max(total_.clf, window.clf);
}

ContinuityReport ContinuityMeter::total() const noexcept {
    ContinuityReport r = total_;
    r.alf = r.slots == 0
                ? 0.0
                : static_cast<double>(r.unit_losses) / static_cast<double>(r.slots);
    return r;
}

}  // namespace espread
