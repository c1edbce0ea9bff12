#include "net/fragment.hpp"

#include <stdexcept>

namespace espread::net {

std::size_t packet_count(std::size_t frame_bits, std::size_t mtu_bits) {
    if (mtu_bits == 0) throw std::invalid_argument("packet_count: mtu must be positive");
    if (frame_bits == 0) return 1;
    return (frame_bits + mtu_bits - 1) / mtu_bits;
}

std::vector<std::size_t> fragment_sizes(std::size_t frame_bits, std::size_t mtu_bits) {
    std::vector<std::size_t> sizes(packet_count(frame_bits, mtu_bits));
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        sizes[i] = fragment_size(frame_bits, mtu_bits, i);
    }
    return sizes;
}

}  // namespace espread::net
