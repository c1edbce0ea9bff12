// MPEG buffer-window modelling: frames of W consecutive GOPs and the
// dependency poset over them (paper §3.2, Fig. 2).
//
// Dependency rules modelled (display order):
//   * the I frame of a GOP depends on nothing;
//   * each P frame depends on the nearest preceding anchor of its GOP;
//   * each B frame depends on the nearest preceding anchor of its GOP and
//     on the nearest following anchor — which, for the trailing B frames of
//     a GOP, is the NEXT GOP's I frame.  Those cross-GOP edges (the dashed
//     arrows of the paper's Fig. 2) exist only for open GOPs; closed GOPs
//     make boundary B frames backward-predicted only.
#pragma once

#include <cstddef>

#include "media/gop.hpp"
#include "poset/poset.hpp"

namespace espread::media {

/// Whether GOP-boundary B frames may reference the neighbouring GOP.
enum class GopBoundary { kOpen, kClosed };

/// Dependency poset over the frames of a window of `num_gops` consecutive
/// GOPs of `pattern`.  Element ids are playback indices, 0 ..
/// num_gops*pattern.size()-1.  With GopBoundary::kOpen, trailing B
/// frames of GOP g < num_gops-1 additionally depend on the I frame of GOP
/// g+1; the window's final GOP has no successor, so its trailing B frames
/// are backward-only in either mode.
espread::poset::Poset build_dependency_poset(const GopPattern& pattern,
                                             std::size_t num_gops,
                                             GopBoundary boundary = GopBoundary::kOpen);

}  // namespace espread::media
