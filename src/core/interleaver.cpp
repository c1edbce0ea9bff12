#include "core/interleaver.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace espread {

Permutation ibo_order(std::size_t n) {
    if (n == 0) return Permutation{std::vector<std::size_t>{}};
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    const std::size_t m = std::size_t{1} << bits;
    std::vector<std::size_t> image;
    image.reserve(n);
    for (std::size_t i = 0; i < m; ++i) {
        std::size_t rev = 0;
        for (std::size_t bit = 0; bit < bits; ++bit) {
            if (i & (std::size_t{1} << bit)) rev |= std::size_t{1} << (bits - 1 - bit);
        }
        if (rev < n) image.push_back(rev);
    }
    return Permutation{std::move(image)};
}

Permutation cyclic_stride_order(std::size_t n, std::size_t stride, std::size_t offset) {
    if (n == 0) return Permutation{std::vector<std::size_t>{}};
    if (stride == 0 || std::gcd(stride, n) != 1) {
        throw std::invalid_argument("cyclic_stride_order: stride must be coprime with n");
    }
    std::vector<std::size_t> image;
    image.reserve(n);
    std::size_t v = offset % n;
    for (std::size_t i = 0; i < n; ++i) {
        image.push_back(v);
        v += stride;
        if (v >= n) v -= n;
    }
    return Permutation{std::move(image)};
}

Permutation residue_class_order(std::size_t n, std::size_t stride) {
    std::vector<std::size_t> natural(stride);
    std::iota(natural.begin(), natural.end(), std::size_t{0});
    return residue_class_order(n, stride, natural);
}

Permutation residue_class_order(std::size_t n, std::size_t stride,
                                const std::vector<std::size_t>& class_order) {
    if (n == 0) return Permutation{std::vector<std::size_t>{}};
    if (stride == 0 || stride > n) {
        throw std::invalid_argument("residue_class_order: stride must be in [1, n]");
    }
    if (class_order.size() != stride) {
        throw std::invalid_argument("residue_class_order: class_order size != stride");
    }
    std::vector<std::size_t> image;
    image.reserve(n);
    for (const std::size_t r : class_order) {
        if (r >= stride) {
            throw std::invalid_argument("residue_class_order: class id out of range");
        }
        for (std::size_t v = r; v < n; v += stride) image.push_back(v);
    }
    return Permutation{std::move(image)};  // ctor rejects repeated classes
}

}  // namespace espread
