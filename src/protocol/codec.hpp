// Byte-level wire codec for the protocol records (DataPacket header,
// WindowTrailer, Feedback).
//
// The simulator moves records as in-memory structs (payload bits are
// accounted, not materialized), but a deployment needs real headers; this
// codec defines them: fixed-width big-endian fields, a one-byte type tag,
// a trailing CRC-16 (wire_checksum in wire.hpp) sealing every record, and
// bounds-checked decoding that rejects truncated or corrupt input instead
// of reading past the buffer.  The codec is canonical: decode accepts a
// byte string iff re-encoding the decoded record reproduces it exactly —
// the property the deterministic fuzz harness (tests/test_codec_fuzz) and
// the optional libFuzzer target (fuzz_codec) drive.  kPacketHeaderBits in
// session.cpp budgets 256 header bits per packet; encoded_size() of a
// DataPacket is asserted (in tests) to fit that budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/wire.hpp"

namespace espread::proto {

/// Wire type tags: the first byte of every record.  peek_type's switch
/// refuses to compile if two tags share a byte.
enum class WireType : std::uint8_t {
    kData = 1,
    kTrailer = 2,
    kFeedback = 3,
    kRepair = 4,
    kNack = 5,
};

/// Serialized bytes of each record type.
std::vector<std::uint8_t> encode(const DataPacket& p);
std::vector<std::uint8_t> encode(const WindowTrailer& t);
std::vector<std::uint8_t> encode(const Feedback& f);
std::vector<std::uint8_t> encode(const RepairPacket& r);
std::vector<std::uint8_t> encode(const NackRequest& n);

/// Peeks the type tag; nullopt on empty input or unknown tag.
std::optional<WireType> peek_type(const std::vector<std::uint8_t>& bytes);

/// Decoders return nullopt on any malformed input (short buffer, wrong
/// tag, inconsistent counts) — never throw, never read out of bounds.
std::optional<DataPacket> decode_data(const std::vector<std::uint8_t>& bytes);
std::optional<WindowTrailer> decode_trailer(const std::vector<std::uint8_t>& bytes);
std::optional<Feedback> decode_feedback(const std::vector<std::uint8_t>& bytes);
std::optional<RepairPacket> decode_repair(const std::vector<std::uint8_t>& bytes);
std::optional<NackRequest> decode_nack(const std::vector<std::uint8_t>& bytes);

/// Exact encoded size in bytes of a DataPacket header (fixed).
std::size_t data_packet_header_bytes() noexcept;

/// Exact encoded size in bytes of a RepairPacket header (fixed).
std::size_t repair_packet_header_bytes() noexcept;

/// Exact encoded size in bytes of a NackRequest record (fixed).
std::size_t nack_request_header_bytes() noexcept;

}  // namespace espread::proto
