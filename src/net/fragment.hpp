// Frame packetization (paper §5.1: "Frames are broken up into packets of
// size 2 Kbytes" — 16384 bits, the packetSize of Fig. 8).
//
// A frame of s bits becomes ceil(s / mtu) packets; the final packet carries
// the remainder.  A frame is usable only if every one of its packets
// arrives (no partial-frame decoding), which is how a burst of packet
// losses maps onto frame-level unit losses.
#pragma once

#include <cstddef>
#include <vector>

namespace espread::net {

/// Paper's packet size: 2 KB = 16384 bits.
constexpr std::size_t kDefaultPacketBits = 16384;

/// Number of packets needed for a frame of `frame_bits`.
/// Zero-size frames still occupy one (header-only) packet.
/// Throws std::invalid_argument when mtu_bits == 0.
std::size_t packet_count(std::size_t frame_bits, std::size_t mtu_bits);

/// Size (bits) of packet `i` < packet_count(frame_bits, mtu_bits) of the
/// frame: mtu_bits but for the last packet, which holds the remainder.  A
/// zero-size frame's one packet is 1 bit, so the sizes sum to
/// max(frame_bits, 1).
constexpr std::size_t fragment_size(std::size_t frame_bits, std::size_t mtu_bits,
                                    std::size_t i) noexcept {
    if (frame_bits == 0) return 1;
    const std::size_t rest = frame_bits - i * mtu_bits;
    return rest < mtu_bits ? rest : mtu_bits;
}

/// Sizes (bits) of each packet of the frame, in order: fragment_size() of
/// every packet.
std::vector<std::size_t> fragment_sizes(std::size_t frame_bits, std::size_t mtu_bits);

}  // namespace espread::net
