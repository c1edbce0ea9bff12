// GF(256) arithmetic for the sliding-window streaming code (DESIGN.md §12).
//
// The field is GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D, the classic Rizzo/RSE choice); 2 is a primitive element, so
// inversion runs off 256-entry log/antilog tables.  Products go through
// the bulk kernels — `gf_mul_row_add`, dst ^= c * src over a byte row —
// which use two 256x16 nibble product slices (product(c, x) =
// lo[c][x & 0xF] ^ hi[c][x >> 4]): two direct loads and one XOR per byte
// instead of two log lookups, an add and an antilog.  On x86-64 CPUs with
// SSSE3 the kernels look up sixteen bytes at once in the same slices
// (one byte shuffle per slice), leaving only a row's tail to the byte
// loop.  All tables are built at compile time, so there is no runtime
// initialisation order to reason about.
#pragma once

#include <cstddef>
#include <cstdint>

namespace espread::fec {

/// Field addition/subtraction (they coincide in characteristic 2).
constexpr std::uint8_t gf_add(std::uint8_t a, std::uint8_t b) noexcept {
    return static_cast<std::uint8_t>(a ^ b);
}

/// Bitwise ("Russian peasant") reference multiply: shift-and-conditionally-
/// reduce, no tables.  It builds the nibble product slices, and it is the
/// oracle the row kernels are tested against.
constexpr std::uint8_t gf_mul_ref(std::uint8_t a, std::uint8_t b) noexcept {
    std::uint32_t acc = 0;
    std::uint32_t top = a;
    for (std::uint32_t rest = b; rest != 0; rest >>= 1) {
        if ((rest & 1u) != 0) acc ^= top;
        top <<= 1;
        if ((top & 0x100u) != 0) top ^= 0x11Du;
    }
    return static_cast<std::uint8_t>(acc);
}

/// Multiplicative inverse; requires a != 0.
std::uint8_t gf_inv(std::uint8_t a) noexcept;

/// dst[i] ^= c * src[i] for i in [0, n) — the decoder/encoder workhorse,
/// via the nibble-sliced product tables.  c == 0 is a no-op, c == 1 a XOR.
void gf_mul_row_add(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c) noexcept;

/// dst[i] = c * dst[i] for i in [0, n) (row normalisation).
void gf_mul_row(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept;

}  // namespace espread::fec
