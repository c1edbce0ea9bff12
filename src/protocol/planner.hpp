// Per-window transmission planning: the Layered Permutation Transmission
// Order (paper §3.2–§3.3, Fig. 3).
//
// The window's dependency structure (fixed for a session) determines the
// layers (poset::layer_members: anchors by height, then the non-anchor
// frames); the scheme and the current burst-bound estimate determine the
// wire order within each layer.  Under the spreading schemes each layer is
// scrambled with calculatePermutation: critical (anchor) layers against the
// fixed "average case" bound ceil(|layer| / 2), the non-critical layer
// against the adaptive bound learned from client feedback.  The layers go
// out critical first, so the concatenated order is a linear extension of
// the dependency poset — a frame is never sent before the frames it
// depends on — and truncating the tail drops the most expendable frames
// first.  Plans are cached per bound, since the estimate changes slowly.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "media/mpeg.hpp"
#include "poset/poset.hpp"
#include "protocol/config.hpp"

namespace espread::proto {

/// One frame's slot in the wire order of a window.
struct WireEntry {
    std::size_t local_frame = 0;  ///< frame index within the window (0..n-1)
    std::size_t layer = 0;        ///< transmission layer id
    std::size_t tx_pos = 0;       ///< position within the layer's wire order
    bool critical = false;        ///< anchor frame (retransmission target)
};

/// Complete wire order for one buffer window.
struct WindowPlan {
    std::vector<WireEntry> order;           ///< concatenated layers, layer 0 first
    std::vector<std::size_t> layer_sizes;   ///< frames per layer
    std::vector<bool> layer_critical;       ///< layer contains anchors only
    std::size_t noncritical_bound = 0;      ///< bound the non-critical layers used
};

/// Builds (and caches) window plans for a session's stream structure.
class Planner {
public:
    /// Derives the dependency poset and layer structure from `cfg`.
    /// MJPEG/audio streams yield the trivial poset (one non-critical layer).
    explicit Planner(const SessionConfig& cfg);

    std::size_t window_ldus() const noexcept { return poset_.size(); }

    /// Layer structure (independent of the burst bound).
    const std::vector<std::size_t>& layer_sizes() const noexcept { return layer_sizes_; }
    const std::vector<bool>& layer_critical() const noexcept { return layer_critical_; }

    /// Total frames across non-critical layers — the LDU window the burst
    /// estimator operates on.
    std::size_t noncritical_size() const noexcept { return noncritical_size_; }

    /// Direct prerequisites (local indices) per local frame — the client
    /// uses these to mark undecodable frames.
    const std::vector<std::vector<std::size_t>>& prerequisites() const noexcept {
        return prereqs_;
    }

    /// Wire order for one window under the given non-critical burst bound.
    /// Bounds are clamped to layer sizes.  Cached per bound.
    const WindowPlan& plan(std::size_t noncritical_bound);

    const espread::poset::Poset& dependency_poset() const noexcept { return poset_; }

private:
    WindowPlan build(std::size_t noncritical_bound) const;

    Scheme scheme_;
    espread::poset::Poset poset_;
    std::vector<std::vector<std::size_t>> layers_;  // members, ascending
    std::vector<std::size_t> layer_sizes_;
    std::vector<bool> layer_critical_;
    std::vector<bool> anchor_;
    std::vector<std::vector<std::size_t>> prereqs_;
    std::size_t noncritical_size_ = 0;
    std::map<std::size_t, WindowPlan> cache_;
};

}  // namespace espread::proto
