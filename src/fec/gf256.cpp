#include "fec/gf256.hpp"

#include <array>

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
    for (std::size_t i = 0; i < n; ++i) {
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
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t v = dst[i];
        dst[i] = static_cast<std::uint8_t>(lo[v & 0x0Fu] ^ hi[v >> 4]);
    }
}

}  // namespace espread::fec
