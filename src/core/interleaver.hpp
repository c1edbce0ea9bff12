// Transmission orderings (paper §4.4, Table 2).
//
//  * IBO (Inverse Binary Order) — the B-frame priority order shipped in the
//    Berkeley Continuous Media Toolkit, which the paper replaces with k-CPO;
//  * stride / residue-class orders — the building blocks of the paper's
//    cyclic permutation scheme (calculate_permutation in core/cpo.hpp
//    searches them).
#pragma once

#include <cstddef>

#include "core/permutation.hpp"

namespace espread {

/// Inverse Binary Order of n items (Berkeley CMT's B-frame order, credited
/// in the CMT source to Daishi Harada).  For n a power of two this is the
/// bit-reversal permutation; for other n the bit-reversal sequence of the
/// next power of two is filtered to indices < n.  Reproduces the paper's
/// Table 2 row "01 05 03 07 02 06 04 08" for n = 8.
Permutation ibo_order(std::size_t n);

/// Cyclic arithmetic-progression order: slot i carries playback index
/// (offset + i*stride) mod n.  Requires gcd(stride, n) == 1 so the map is a
/// bijection (throws otherwise).  The paper's Table 1 order for n = 17 is
/// cyclic_stride_order(17, 5, 0).
Permutation cyclic_stride_order(std::size_t n, std::size_t stride, std::size_t offset = 0);

/// Residue-class order: transmit all playback indices congruent to 0 mod
/// stride in increasing order, then 1 mod stride, etc.  Works for any
/// stride in [1, n]; stride 1 is the identity.  The paper's Table 2 k-CPO
/// row "01 04 07 02 05 08 03 06" is residue_class_order(8, 3).
Permutation residue_class_order(std::size_t n, std::size_t stride);

/// As residue_class_order, but visiting the residue classes in the given
/// order (`class_order` must be a permutation of 0..stride-1; throws
/// otherwise).  Choosing a class order whose consecutive classes are
/// non-adjacent residues removes playback adjacencies at class boundaries —
/// e.g. residue_class_order(4, 2, {1, 0}) = [1 3 0 2] tolerates any burst
/// of 2 with CLF 1, which the natural order cannot.
Permutation residue_class_order(std::size_t n, std::size_t stride,
                                const std::vector<std::size_t>& class_order);

}  // namespace espread
