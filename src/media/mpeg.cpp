#include "media/mpeg.hpp"

namespace espread::media {

espread::poset::Poset build_dependency_poset(const GopPattern& pattern,
                                             std::size_t num_gops,
                                             GopBoundary boundary) {
    const std::size_t gop_size = pattern.size();
    const std::size_t n = gop_size * num_gops;
    espread::poset::Poset poset{n};
    const std::vector<std::size_t>& anchors = pattern.anchor_positions();

    for (std::size_t g = 0; g < num_gops; ++g) {
        const std::size_t base = g * gop_size;
        for (std::size_t p = 0; p < gop_size; ++p) {
            const FrameType t = pattern.type_at(p);
            if (t == FrameType::kI) continue;

            // Nearest anchor before position p within this GOP (position 0
            // is always I, so it exists).
            std::size_t prev_anchor = 0;
            for (const std::size_t a : anchors) {
                if (a < p) prev_anchor = a;
            }
            poset.add_dependency(base + p, base + prev_anchor);
            if (t == FrameType::kP) continue;

            // B frames also reference the nearest following anchor.
            bool found_forward = false;
            for (const std::size_t a : anchors) {
                if (a > p) {
                    poset.add_dependency(base + p, base + a);
                    found_forward = true;
                    break;
                }
            }
            if (!found_forward && boundary == GopBoundary::kOpen &&
                g + 1 < num_gops) {
                poset.add_dependency(base + p, base + gop_size);  // next GOP's I
            }
        }
    }
    return poset;
}

}  // namespace espread::media
