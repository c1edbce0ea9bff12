#include "fec/gf256.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace espread::fec {
namespace {

struct LogTables {
    std::array<std::uint8_t, 256> log{};
    // exp[i] = 2^i; exp[255] == exp[0] == 1, so gf_inv can index
    // 255 - log[a] without a mod-255 reduction.
    std::array<std::uint8_t, 256> exp{};
};

constexpr LogTables make_log_tables() {
    LogTables t{};
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 255; ++i) {
        t.exp[i] = static_cast<std::uint8_t>(x);
        t.log[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if ((x & 0x100u) != 0) x ^= 0x11Du;
    }
    t.exp[255] = 1;
    return t;
}

constexpr LogTables kLog = make_log_tables();

struct SliceTables {
    // lo[c][v] = c * v,  hi[c][v] = c * (v << 4): one row XOR per byte.
    std::array<std::array<std::uint8_t, 16>, 256> lo{};
    std::array<std::array<std::uint8_t, 16>, 256> hi{};
};

constexpr SliceTables make_slice_tables() {
    SliceTables t{};
    for (std::uint32_t c = 0; c < 256; ++c) {
        for (std::uint32_t v = 0; v < 16; ++v) {
            t.lo[c][v] = gf_mul_ref(static_cast<std::uint8_t>(c),
                                    static_cast<std::uint8_t>(v));
            t.hi[c][v] = gf_mul_ref(static_cast<std::uint8_t>(c),
                                    static_cast<std::uint8_t>(v << 4));
        }
    }
    return t;
}

constexpr SliceTables kSlice = make_slice_tables();

#if defined(__x86_64__)
/// dst = c * src, or dst ^= c * src with `accumulate`, over the leading
/// whole 16-byte blocks of n bytes; returns the bytes done.  SSSE3's byte
/// shuffle looks a whole block up in both nibble slices at once.
__attribute__((target("ssse3"))) std::size_t mul_blocks_ssse3(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n, std::uint8_t c,
    bool accumulate) noexcept {
    // Blocks move through memcpy (one unaligned load or store each).
    __m128i lo;
    __m128i hi;
    std::memcpy(&lo, kSlice.lo[c].data(), 16);
    std::memcpy(&hi, kSlice.hi[c].data(), 16);
    const __m128i nibble = _mm_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v;
        std::memcpy(&v, src + i, 16);
        __m128i product =
            _mm_xor_si128(_mm_shuffle_epi8(lo, _mm_and_si128(v, nibble)),
                          _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), nibble)));
        if (accumulate) {
            __m128i d;
            std::memcpy(&d, dst + i, 16);
            product = _mm_xor_si128(product, d);
        }
        std::memcpy(dst + i, &product, 16);
    }
    return i;
}

/// Whether mul_blocks_ssse3 may run here (every x86-64 CPU since 2006).
const bool kHasSsse3 = (__builtin_cpu_init(), __builtin_cpu_supports("ssse3") != 0);

std::size_t mul_blocks(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                       std::uint8_t c, bool accumulate) noexcept {
    return kHasSsse3 ? mul_blocks_ssse3(dst, src, n, c, accumulate) : 0;
}
#else
std::size_t mul_blocks(std::uint8_t*, const std::uint8_t*, std::size_t, std::uint8_t,
                       bool) noexcept {
    return 0;
}
#endif

}  // namespace

std::uint8_t gf_inv(std::uint8_t a) noexcept {
    // a = exp[log a]  =>  a^-1 = exp[255 - log a]; exp[255] == exp[0] == 1.
    return kLog.exp[255u - kLog.log[a]];
}

void gf_mul_row_add(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c) noexcept {
    if (c == 0) return;
    if (c == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
        }
        return;
    }
    const std::array<std::uint8_t, 16>& lo = kSlice.lo[c];
    const std::array<std::uint8_t, 16>& hi = kSlice.hi[c];
    for (std::size_t i = mul_blocks(dst, src, n, c, /*accumulate=*/true); i < n; ++i) {
        const std::uint8_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(dst[i] ^ lo[v & 0x0Fu] ^
                                           hi[v >> 4]);
    }
}

void gf_mul_row(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept {
    if (c == 1) return;
    if (c == 0) {
        for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
        return;
    }
    const std::array<std::uint8_t, 16>& lo = kSlice.lo[c];
    const std::array<std::uint8_t, 16>& hi = kSlice.hi[c];
    for (std::size_t i = mul_blocks(dst, dst, n, c, /*accumulate=*/false); i < n; ++i) {
        const std::uint8_t v = dst[i];
        dst[i] = static_cast<std::uint8_t>(lo[v & 0x0Fu] ^ hi[v >> 4]);
    }
}

}  // namespace espread::fec
