// MPEG group-of-pictures patterns (paper §3.2, Fig. 2).
//
// A GOP is the run of frames from one I frame (inclusive) to the next
// (exclusive).  The paper assumes the common practice of a fixed anchor
// spacing, so all GOPs share one display-order pattern such as
// "IBBPBBPBBPBB" (GOP 12) or "IBBPBBPBBPBBPBB" (GOP 15).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "media/ldu.hpp"

namespace espread::media {

/// Immutable display-order GOP pattern.
///
/// Invariants: non-empty, starts with 'I', exactly one 'I', only I/P/B.
class GopPattern {
public:
    /// Parses a pattern string like "IBBPBBPBB".
    /// Throws std::invalid_argument on any invariant violation.
    static GopPattern parse(std::string_view pattern);

    /// The conventional pattern with two B frames between anchors, sized to
    /// `gop_size` frames, e.g. 12 -> IBBPBBPBBPBB.  `gop_size` must be 1 or
    /// a multiple of 3 (throws otherwise).
    static GopPattern standard(std::size_t gop_size);

    std::size_t size() const noexcept { return types_.size(); }
    FrameType type_at(std::size_t pos) const;

    std::size_t anchor_count() const noexcept { return anchors_; }  // I + P
    std::size_t p_count() const noexcept { return anchors_ - 1; }
    std::size_t b_count() const noexcept { return size() - anchors_; }

    /// Display positions of the anchor frames, ascending (position 0 is I).
    const std::vector<std::size_t>& anchor_positions() const noexcept {
        return anchor_positions_;
    }

    bool operator==(const GopPattern& rhs) const noexcept = default;

private:
    explicit GopPattern(std::vector<FrameType> types);

    std::vector<FrameType> types_;
    std::vector<std::size_t> anchor_positions_;
    std::size_t anchors_ = 0;
};

}  // namespace espread::media
