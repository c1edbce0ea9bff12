#include "protocol/planner.hpp"

#include <algorithm>

#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "media/trace.hpp"
#include "media/trace_io.hpp"

namespace espread::proto {

namespace {

espread::poset::Poset make_poset(const SessionConfig& cfg) {
    if (cfg.stream.kind == StreamKind::kMpeg) {
        const media::GopPattern pattern =
            media::GopPattern::standard(media::movie_stats(cfg.stream.movie).gop_size);
        return media::build_dependency_poset(pattern, cfg.gops_per_window);
    }
    if (cfg.stream.kind == StreamKind::kTraceFile) {
        const media::GopPattern pattern = media::infer_gop_pattern(
            media::read_trace_file(cfg.stream.trace_path));
        return media::build_dependency_poset(pattern, cfg.gops_per_window);
    }
    return espread::poset::Poset{cfg.stream.ldus_per_window};
}

}  // namespace

Planner::Planner(const SessionConfig& cfg)
    : scheme_(cfg.scheme), poset_(make_poset(cfg)) {
    const std::size_t n = poset_.size();

    anchor_.assign(n, false);
    for (const std::size_t a : poset_.anchors()) anchor_[a] = true;

    prereqs_.resize(n);
    for (std::size_t f = 0; f < n; ++f) prereqs_[f] = poset_.direct_prerequisites(f);

    if (scheme_ == Scheme::kInOrder || scheme_ == Scheme::kRlc) {
        // The "usual MPEG transmission" baseline: coding order — every
        // frame after its prerequisites, otherwise as close to display
        // order as possible (I0 P1 B B P2 B B ...).  linear_extension()'s
        // lowest-index-first Kahn order is exactly that; for dependency-free
        // streams it degenerates to playback order.
        layers_.push_back(poset_.linear_extension());
    } else {
        layers_ = espread::poset::layer_members(poset_);
    }

    for (const auto& members : layers_) {
        layer_sizes_.push_back(members.size());
        const bool critical =
            !members.empty() &&
            std::all_of(members.begin(), members.end(),
                        [&](std::size_t f) { return anchor_[f]; });
        layer_critical_.push_back(critical);
        if (!critical) noncritical_size_ += members.size();
    }
}

const WindowPlan& Planner::plan(std::size_t noncritical_bound) {
    const auto it = cache_.find(noncritical_bound);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(noncritical_bound, build(noncritical_bound)).first->second;
}

WindowPlan Planner::build(std::size_t noncritical_bound) const {
    WindowPlan plan;
    plan.layer_sizes = layer_sizes_;
    plan.layer_critical = layer_critical_;
    plan.noncritical_bound = noncritical_bound;

    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const std::vector<std::size_t>& members = layers_[l];
        const std::size_t m = members.size();

        Permutation perm = Permutation::identity(m);
        switch (scheme_) {
            case Scheme::kInOrder:
            case Scheme::kLayeredNoScramble:
            case Scheme::kRlc:  // pure coding keeps the in-order baseline
                break;  // identity
            case Scheme::kLayeredIbo:
                // CMT behaviour: anchors in priority order, B frames in IBO.
                if (!layer_critical_[l]) perm = ibo_order(m);
                break;
            case Scheme::kLayeredSpread:
            case Scheme::kHybridSpreadRlc: {  // spread first, code on top
                // Critical layers use the fixed "average case" bound; the
                // non-critical layers use the adaptive estimate (§4.2).
                std::size_t bound = layer_critical_[l]
                                        ? (m + 1) / 2
                                        : std::min(noncritical_bound, m);
                // A bound of the whole layer is degenerate (any order has
                // worst-case CLF m, so the core returns the identity); after
                // a catastrophic window that would turn scrambling OFF just
                // when the network is worst.  Keep spreading against the
                // largest non-degenerate burst instead.
                if (bound >= m && m > 1) bound = m - 1;
                perm = calculate_permutation(m, bound).perm;
                break;
            }
        }

        for (std::size_t pos = 0; pos < m; ++pos) {
            WireEntry e;
            e.local_frame = members[perm[pos]];
            e.layer = l;
            e.tx_pos = pos;
            e.critical = anchor_[e.local_frame];
            plan.order.push_back(e);
        }
    }
    return plan;
}

}  // namespace espread::proto
