// Wire-format records exchanged between server and client.
//
// These carry only header-style metadata (sequence numbers, window/layer
// coordinates); payload bits are simulated by size accounting on the
// channel, never materialized.  The byte-level encoding (protocol/codec)
// seals every record with a trailing 16-bit checksum so corrupted headers
// are rejected at decode time instead of poisoning receiver state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace espread::proto {

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over `size` bytes.  Every
/// encoded record carries this over its preceding bytes as its final two
/// bytes (big-endian); decoders verify it before reading any field, which
/// is what turns random bit flips into clean kCorruptRejected drops rather
/// than plausible-but-wrong headers.
std::uint16_t wire_checksum(const std::uint8_t* data, std::size_t size) noexcept;

/// One data packet: a fragment of one frame of one buffer window.
struct DataPacket {
    std::uint64_t seq = 0;       ///< global packet sequence number
    std::size_t window = 0;      ///< buffer-window number
    std::size_t layer = 0;       ///< transmission layer id within the window
    std::size_t tx_pos = 0;      ///< frame's position in its layer's wire order
    std::size_t frame_index = 0; ///< global playback index of the frame
    std::size_t fragment = 0;    ///< fragment number within the frame
    std::size_t num_fragments = 1;
    std::size_t size_bits = 0;
    bool retransmission = false;
    std::size_t fec_group = 0;   ///< RLC source index (coded schemes only)
};

/// One repair packet of the sliding-window random-linear code (DESIGN.md
/// §12): a GF(256) combination of the source packets [base, base+count).
/// The coefficient vector never travels — the receiver re-expands it from
/// `cseed` (fec::expand_coefficients), keeping the header constant-size.
struct RepairPacket {
    std::uint64_t seq = 0;       ///< global packet sequence number
    std::size_t window = 0;      ///< buffer window it was emitted in
    std::uint64_t base = 0;      ///< first source index in the combination
    std::size_t count = 1;       ///< source packets combined, in [1, 255]
    std::uint64_t cseed = 0;     ///< coefficient seed
    std::size_t size_bits = 0;   ///< coded payload bits on the wire
};

/// End-of-window control record: tells the client how many frames were
/// actually sent per layer, so sender-side deadline drops are not mistaken
/// for network losses when estimating the burst bound.  Subject to loss
/// like any packet; the client falls back to a conservative estimate.
struct WindowTrailer {
    std::uint64_t seq = 0;
    std::size_t window = 0;
    std::vector<std::size_t> layer_sent;  ///< frames sent per layer
};

/// Client -> server feedback (the paper's ACK): per-layer estimates of the
/// largest consecutive frame loss observed in transmission order.
struct Feedback {
    std::uint64_t seq = 0;    ///< ACK sequence number (out-of-order ACKs ignored)
    std::size_t window = 0;   ///< which buffer window this reports on
    std::vector<std::size_t> layer_max_burst;  ///< frames, per layer
    std::vector<std::size_t> layer_lost;       ///< lost frame count, per layer
};

/// Client -> server repair request (receiver-authoritative recovery plane):
/// the client names what it is still missing for one buffer window — a
/// bitmap over its local frames (at most kMaxFrames) plus the RLC decoder's
/// rank deficit — and the sender answers with retransmissions or extra
/// repair packets over the side band.  `retry` sequences the client's
/// timeout/backoff rounds so a reordered or duplicated NACK cannot trigger
/// double servicing.
struct NackRequest {
    /// Width of the `missing` bitmap: the most frames per window a NACK
    /// can name (SessionConfig::validate enforces it).
    static constexpr std::size_t kMaxFrames = 64;

    std::uint64_t seq = 0;        ///< NACK sequence number (its own space)
    std::size_t window = 0;       ///< buffer window the request covers
    std::uint64_t missing = 0;    ///< bit f set = local frame f incomplete
    std::size_t rank_deficit = 0; ///< RLC equations short of full rank, in [0, 255]
    std::size_t retry = 0;        ///< backoff round that produced it, in [0, 255]
};

}  // namespace espread::proto
