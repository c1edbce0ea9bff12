#include "protocol/codec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "protocol/receiver.hpp"
#include "sim/rng.hpp"

namespace {

using espread::proto::data_packet_header_bytes;
using espread::proto::DataPacket;
using espread::proto::decode_data;
using espread::proto::decode_feedback;
using espread::proto::decode_trailer;
using espread::proto::encode;
using espread::proto::Feedback;
using espread::proto::peek_type;
using espread::proto::WindowTrailer;
using espread::proto::wire_checksum;
using espread::proto::WireType;

/// CRC-16/CCITT-FALSE one bit at a time: the oracle for the table-driven
/// wire_checksum.
std::uint16_t wire_checksum_bitwise(const std::uint8_t* data,
                                    std::size_t size) {
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint16_t>(data[i] << 8);
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 0x8000u)
                      ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                      : static_cast<std::uint16_t>(crc << 1);
        }
    }
    return crc;
}

DataPacket sample_packet() {
    DataPacket p;
    p.seq = 0x05060708ULL;  // data headers carry seq as 32-bit on the wire
    p.window = 42;
    p.layer = 4;
    p.tx_pos = 13;
    p.frame_index = 1009;
    p.fragment = 2;
    p.num_fragments = 7;
    p.size_bits = 16384;
    p.retransmission = true;
    p.fec_group = 99;
    return p;
}

TEST(Codec, DataPacketRoundTrip) {
    const DataPacket p = sample_packet();
    const auto bytes = encode(p);
    EXPECT_EQ(bytes.size(), data_packet_header_bytes());
    const auto q = decode_data(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->seq, p.seq);
    EXPECT_EQ(q->window, p.window);
    EXPECT_EQ(q->layer, p.layer);
    EXPECT_EQ(q->tx_pos, p.tx_pos);
    EXPECT_EQ(q->frame_index, p.frame_index);
    EXPECT_EQ(q->fragment, p.fragment);
    EXPECT_EQ(q->num_fragments, p.num_fragments);
    EXPECT_EQ(q->size_bits, p.size_bits);
    EXPECT_EQ(q->retransmission, p.retransmission);
    EXPECT_EQ(q->fec_group, p.fec_group);
}

TEST(Codec, HeaderFitsTheBudgetedHeaderBits) {
    // session.cpp charges 256 header bits per packet on the wire; the
    // real encoding must fit that budget.
    EXPECT_LE(data_packet_header_bytes() * 8, 256u);
}

TEST(Codec, RepairPacketRoundTrip) {
    espread::proto::RepairPacket rp;
    rp.seq = 0x0A0B0C0DULL;  // repair headers carry seq as 32-bit on the wire
    rp.window = 17;
    rp.base = 0x01020304ULL;
    rp.count = 96;
    rp.cseed = 0x1122334455667788ULL;
    rp.size_bits = 16384;
    const auto bytes = encode(rp);
    EXPECT_EQ(bytes.size(), espread::proto::repair_packet_header_bytes());
    const auto q = espread::proto::decode_repair(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->seq, rp.seq);
    EXPECT_EQ(q->window, rp.window);
    EXPECT_EQ(q->base, rp.base);
    EXPECT_EQ(q->count, rp.count);
    EXPECT_EQ(q->cseed, rp.cseed);
    EXPECT_EQ(q->size_bits, rp.size_bits);
    EXPECT_EQ(peek_type(bytes), WireType::kRepair);
    // Other decoders must refuse the record.
    EXPECT_FALSE(decode_data(bytes).has_value());
    EXPECT_FALSE(decode_trailer(bytes).has_value());
}

TEST(Codec, RepairHeaderFitsTheBudgetedHeaderBits) {
    EXPECT_LE(espread::proto::repair_packet_header_bytes() * 8, 256u);
}

TEST(Codec, TrailerRoundTrip) {
    WindowTrailer t;
    t.seq = 77;
    t.window = 5;
    t.layer_sent = {2, 2, 2, 2, 16};
    const auto bytes = encode(t);
    const auto u = decode_trailer(bytes);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->seq, t.seq);
    EXPECT_EQ(u->window, t.window);
    EXPECT_EQ(u->layer_sent, t.layer_sent);
}

TEST(Codec, FeedbackRoundTrip) {
    Feedback f;
    f.seq = 123456;
    f.window = 9;
    f.layer_max_burst = {0, 1, 0, 2, 5};
    f.layer_lost = {0, 1, 0, 3, 8};
    const auto bytes = encode(f);
    const auto g = decode_feedback(bytes);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->seq, f.seq);
    EXPECT_EQ(g->window, f.window);
    EXPECT_EQ(g->layer_max_burst, f.layer_max_burst);
    EXPECT_EQ(g->layer_lost, f.layer_lost);
}

TEST(Codec, PeekTypeDispatches) {
    EXPECT_EQ(peek_type(encode(sample_packet())), WireType::kData);
    EXPECT_EQ(peek_type(encode(WindowTrailer{})), WireType::kTrailer);
    EXPECT_EQ(peek_type(encode(Feedback{})), WireType::kFeedback);
    EXPECT_EQ(peek_type({}), std::nullopt);
    EXPECT_EQ(peek_type({0xFF}), std::nullopt);
}

TEST(Codec, RejectsTruncatedInput) {
    auto bytes = encode(sample_packet());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> shorter(bytes.begin(),
                                                bytes.begin() + cut);
        EXPECT_EQ(decode_data(shorter), std::nullopt) << "cut=" << cut;
    }
}

TEST(Codec, RejectsTrailingGarbage) {
    auto bytes = encode(sample_packet());
    bytes.push_back(0);
    EXPECT_EQ(decode_data(bytes), std::nullopt);
}

TEST(Codec, RejectsWrongTag) {
    auto bytes = encode(sample_packet());
    EXPECT_EQ(decode_trailer(bytes), std::nullopt);
    EXPECT_EQ(decode_feedback(bytes), std::nullopt);
}

TEST(Codec, SeqTruncatesBeyond32BitsByDesign) {
    DataPacket p = sample_packet();
    p.seq = 0x1'0000'0001ULL;
    const auto q = decode_data(encode(p));
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->seq, 1u);  // wraps modulo 2^32, like any wire counter
}

TEST(Codec, RejectsInconsistentFragmentFields) {
    DataPacket p = sample_packet();
    p.fragment = 7;       // == num_fragments: out of range
    p.num_fragments = 7;
    EXPECT_EQ(decode_data(encode(p)), std::nullopt);
}

TEST(Codec, RejectsUnknownDataFlagBits) {
    // Bit 0 (retransmission) is the only data flag; any other bit is
    // rejected so decode stays canonical.  The flags byte sits before the
    // 4-byte fec_group and the 2-byte CRC.
    const auto with_flags = [](std::uint8_t flags) {
        auto bytes = encode(sample_packet());
        const std::size_t at = bytes.size() - 7;
        bytes[at] = flags;
        bytes.resize(bytes.size() - 2);
        const std::uint16_t crc = wire_checksum(bytes.data(), bytes.size());
        bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
        bytes.push_back(static_cast<std::uint8_t>(crc));
        return bytes;
    };
    ASSERT_TRUE(decode_data(with_flags(0x01)).has_value());
    EXPECT_EQ(decode_data(with_flags(0x02)), std::nullopt);
    EXPECT_EQ(decode_data(with_flags(0x03)), std::nullopt);
}

TEST(Codec, TrailerWithTruncatedLayerArrayRejected) {
    WindowTrailer t;
    t.seq = 1;
    t.window = 0;
    t.layer_sent = {1, 2, 3};
    auto bytes = encode(t);
    bytes.pop_back();
    EXPECT_EQ(decode_trailer(bytes), std::nullopt);
}

TEST(Codec, FuzzedBytesNeverCrashDecoders) {
    // Random mutations of valid records and fully random buffers must
    // either decode to a value or return nullopt — never read out of
    // bounds (would trip ASAN/valgrind) or throw.
    espread::sim::Rng rng{2024};
    const auto valid = encode(sample_packet());
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes = valid;
        const std::size_t flips = 1 + rng.uniform_int(0, 4);
        for (std::size_t i = 0; i < flips; ++i) {
            bytes[rng.uniform_int(0, bytes.size() - 1)] ^=
                static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        EXPECT_NO_THROW({
            (void)decode_data(bytes);
            (void)decode_trailer(bytes);
            (void)decode_feedback(bytes);
        });
    }
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.uniform_int(0, 64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        EXPECT_NO_THROW({
            (void)decode_data(bytes);
            (void)decode_trailer(bytes);
            (void)decode_feedback(bytes);
        });
    }
}

TEST(Codec, BitflippedHeaderEitherRejectsOrStaysInBounds) {
    // Single-bit flips in the structural fields (counts) must not make the
    // decoder claim more layers than bytes present.
    WindowTrailer t;
    t.seq = 1;
    t.window = 2;
    t.layer_sent = {5, 5};
    auto bytes = encode(t);
    // Flip every bit of the layer-count byte (offset 1 + 8 + 4 = 13).
    for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[13] ^= static_cast<std::uint8_t>(1 << bit);
        const auto decoded = decode_trailer(mutated);
        if (decoded.has_value()) {
            EXPECT_EQ(decoded->layer_sent.size(), 2u);  // only the same count fits
        }
    }
}

TEST(Codec, EncodedPathDrivesReceiverIdentically) {
    // End-to-end: a window's packets pushed through encode/decode must
    // leave the client in exactly the state the in-memory path produces —
    // i.e. the codec is a faithful transport for the protocol.
    using espread::proto::Receiver;
    using espread::proto::WindowOutcome;

    const std::vector<std::vector<std::size_t>> prereqs(6);
    Receiver direct{6, {6}, prereqs};
    Receiver via_wire{6, {6}, prereqs};

    espread::sim::Rng rng{77};
    for (std::size_t f = 0; f < 6; ++f) {
        if (f == 2) continue;  // one frame lost entirely
        DataPacket p;
        p.seq = f;
        p.window = 0;
        p.layer = 0;
        p.tx_pos = (f * 5) % 6;  // scrambled positions
        p.frame_index = f;
        p.fragment = 0;
        p.num_fragments = 1;
        p.size_bits = 1000 + f;
        direct.on_packet(p, 10);
        const auto decoded = decode_data(encode(p));
        ASSERT_TRUE(decoded.has_value());
        via_wire.on_packet(*decoded, 10);
    }
    WindowTrailer t;
    t.seq = 99;
    t.window = 0;
    t.layer_sent = {6};
    direct.on_trailer(t);
    const auto decoded_t = decode_trailer(encode(t));
    ASSERT_TRUE(decoded_t.has_value());
    via_wire.on_trailer(*decoded_t);

    const WindowOutcome a = direct.finalize(0);
    const WindowOutcome b = via_wire.finalize(0);
    EXPECT_EQ(a.playback, b.playback);
    EXPECT_EQ(a.layer_max_burst, b.layer_max_burst);
    EXPECT_EQ(a.layer_lost, b.layer_lost);
    EXPECT_EQ(a.frames_received, b.frames_received);
}

// Every length 0..1100 covers each slicing-by-4 tail (0-3 leftover bytes)
// many times over, from empty input past a full packet header.
TEST(Codec, ChecksumMatchesBitwiseReference) {
    espread::sim::Rng rng{16};
    std::vector<std::uint8_t> bytes(1100);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        ASSERT_EQ(wire_checksum(bytes.data(), n),
                  wire_checksum_bitwise(bytes.data(), n))
            << "length " << n;
    }
}

// The catalogued check value of CRC-16/CCITT-FALSE.
TEST(Codec, ChecksumStandardCheckValue) {
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(wire_checksum(digits, sizeof digits), 0x29B1);
}

TEST(Codec, EmptyLayerVectorsRoundTrip) {
    const auto t = decode_trailer(encode(WindowTrailer{}));
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->layer_sent.empty());
    const auto f = decode_feedback(encode(Feedback{}));
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(f->layer_max_burst.empty());
}

}  // namespace
