// Deterministic structure-aware fuzz harness for the wire codec.
//
// 100k+ seeded inputs per run: valid records, bit-flipped records (stale
// checksum), truncations, extensions, length-field lies resealed with a
// valid checksum (so the decoder's bounds checks — not the CRC — must hold
// the line), and pure random bodies under a valid checksum.  Every decoder
// is run on every input; the invariants are
//   (1) never crash, never read out of bounds (ASan/UBSan CI job),
//   (2) accept => canonical: re-encoding the decoded record reproduces the
//       input bytes exactly,
//   (3) the whole corpus is a pure function of the seed (byte-identical
//       accept/reject counts across runs and platforms).
// The same mutation engine is reused by the optional libFuzzer target
// (tests/fuzz_codec.cpp, -DESPREAD_LIBFUZZER=ON).
#include "protocol/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "sim/rng.hpp"

namespace {

using espread::proto::DataPacket;
using espread::proto::Feedback;
using espread::proto::NackRequest;
using espread::proto::RepairPacket;
using espread::proto::WindowTrailer;
using espread::proto::decode_data;
using espread::proto::decode_feedback;
using espread::proto::decode_nack;
using espread::proto::decode_repair;
using espread::proto::decode_trailer;
using espread::proto::encode;
using espread::proto::peek_type;
using espread::proto::wire_checksum;
using espread::sim::Rng;

/// Recomputes the trailing CRC so structurally-mutated bodies still pass
/// the checksum gate and exercise the field-level validation.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> bytes) {
    if (bytes.size() < 2) return bytes;
    bytes.resize(bytes.size() - 2);
    const std::uint16_t crc = wire_checksum(bytes.data(), bytes.size());
    bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
    bytes.push_back(static_cast<std::uint8_t>(crc));
    return bytes;
}

DataPacket random_data(Rng& r) {
    DataPacket p;
    p.seq = r.uniform_int(0, 0xFFFFFFFFull);
    p.window = r.uniform_int(0, 0xFFFFFFFFull);
    p.layer = r.uniform_int(0, 0xFF);
    p.tx_pos = r.uniform_int(0, 0xFFFFFFFFull);
    p.frame_index = r.uniform_int(0, 0xFFFFFFFFull);
    p.num_fragments = r.uniform_int(1, 0xFF);
    p.fragment = r.uniform_int(0, static_cast<std::uint64_t>(p.num_fragments) - 1);
    p.size_bits = r.uniform_int(0, 0xFFFFFFFFull);
    p.retransmission = r.bernoulli(0.5);
    p.parity = r.bernoulli(0.5);
    p.fec_group = r.uniform_int(0, 0xFFFFFFFFull);
    return p;
}

WindowTrailer random_trailer(Rng& r) {
    WindowTrailer t;
    t.seq = r.uniform_int(0, 0xFFFFFFFFFFFFull);
    t.window = r.uniform_int(0, 0xFFFFFFFFull);
    t.layer_sent.resize(r.uniform_int(0, 8));
    for (auto& s : t.layer_sent) s = r.uniform_int(0, 0xFFFFFFFFull);
    return t;
}

Feedback random_feedback(Rng& r) {
    Feedback f;
    f.seq = r.uniform_int(0, 0xFFFFFFFFFFFFull);
    f.window = r.uniform_int(0, 0xFFFFFFFFull);
    const std::size_t layers = r.uniform_int(0, 8);
    f.layer_max_burst.resize(layers);
    f.layer_lost.resize(layers);
    for (std::size_t l = 0; l < layers; ++l) {
        f.layer_max_burst[l] = r.uniform_int(0, 0xFFFFFFFFull);
        f.layer_lost[l] = r.uniform_int(0, 0xFFFFFFFFull);
    }
    return f;
}

NackRequest random_nack(Rng& r) {
    NackRequest n;
    n.seq = r.uniform_int(0, 0xFFFFFFFFull);
    n.window = r.uniform_int(0, 0xFFFFFFFFull);
    n.missing = r.uniform_int(0, 0xFFFFFFFFull) |
                (r.uniform_int(0, 0xFFFFFFFFull) << 32);
    n.rank_deficit = r.uniform_int(0, 0xFF);
    n.retry = r.uniform_int(0, 0xFF);
    // An all-empty request is non-canonical (the decoder rejects it); the
    // valid corpus must only carry requests that name something.
    if (n.missing == 0 && n.rank_deficit == 0) n.rank_deficit = 1;
    return n;
}

RepairPacket random_repair(Rng& r) {
    RepairPacket p;
    p.seq = r.uniform_int(0, 0xFFFFFFFFull);
    p.window = r.uniform_int(0, 0xFFFFFFFFull);
    p.base = r.uniform_int(0, 0xFFFFFFFFull);
    p.count = r.uniform_int(1, 0xFF);
    p.cseed = r.next_u64();
    p.size_bits = r.uniform_int(0, 0xFFFFFFFFull);
    return p;
}

/// One valid record of every wire type (the tag coverage test below
/// requires a generator for each tag peek_type accepts).
std::vector<std::uint8_t> random_valid(Rng& r) {
    switch (r.uniform_int(0, 4)) {
        case 0: return encode(random_data(r));
        case 1: return encode(random_trailer(r));
        case 2: return encode(random_nack(r));
        case 3: return encode(random_repair(r));
        default: return encode(random_feedback(r));
    }
}

/// One structure-aware mutation of a valid record.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes, Rng& r) {
    switch (r.uniform_int(0, 5)) {
        case 0:
            return bytes;  // valid record, must round-trip
        case 1: {          // bit flips; the stale CRC should catch them
            const std::uint64_t flips = r.uniform_int(1, 8);
            for (std::uint64_t i = 0; i < flips; ++i) {
                const std::uint64_t byte = r.uniform_int(0, bytes.size() - 1);
                bytes[byte] ^= static_cast<std::uint8_t>(
                    1u << r.uniform_int(0, 7));
            }
            return bytes;
        }
        case 2:  // truncation (possibly to empty)
            bytes.resize(r.uniform_int(0, bytes.size()));
            return bytes;
        case 3: {  // extension with random tail, checksum made valid again
            const std::uint64_t extra = r.uniform_int(1, 16);
            for (std::uint64_t i = 0; i < extra; ++i) {
                bytes.push_back(
                    static_cast<std::uint8_t>(r.uniform_int(0, 255)));
            }
            return reseal(bytes);
        }
        case 4: {  // length-field lie / body mutation under a VALID checksum
            // Offset 13 holds the layer-count byte of trailers and feedback
            // (tag + u64 seq + u32 window); lying there is the classic
            // over-read bait.  Otherwise mutate a random body byte.
            const std::size_t target =
                (bytes.size() > 15 && r.bernoulli(0.5))
                    ? 13
                    : static_cast<std::size_t>(
                          r.uniform_int(0, bytes.size() - 1));
            bytes[target] = static_cast<std::uint8_t>(r.uniform_int(0, 255));
            return reseal(bytes);
        }
        default: {  // pure random body under a valid checksum
            bytes.resize(r.uniform_int(0, 64));
            for (auto& b : bytes) {
                b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
            }
            return reseal(bytes);
        }
    }
}

struct Tally {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
};

/// Runs every decoder on one input; accepted records must re-encode to the
/// exact input bytes (canonical codec).
void check_one(const std::vector<std::uint8_t>& bytes, Tally& tally) {
    (void)peek_type(bytes);
    bool any = false;
    if (const auto p = decode_data(bytes)) {
        any = true;
        ASSERT_EQ(encode(*p), bytes) << "DataPacket canonicity violated";
    }
    if (const auto t = decode_trailer(bytes)) {
        any = true;
        ASSERT_EQ(encode(*t), bytes) << "WindowTrailer canonicity violated";
    }
    if (const auto f = decode_feedback(bytes)) {
        any = true;
        ASSERT_EQ(encode(*f), bytes) << "Feedback canonicity violated";
    }
    if (const auto n = decode_nack(bytes)) {
        any = true;
        ASSERT_EQ(encode(*n), bytes) << "NackRequest canonicity violated";
    }
    if (const auto rep = decode_repair(bytes)) {
        any = true;
        ASSERT_EQ(encode(*rep), bytes) << "RepairPacket canonicity violated";
    }
    ++(any ? tally.accepted : tally.rejected);
}

TEST(CodecFuzz, HundredThousandMutatedInputsNeverBreakTheCodec) {
    Rng rng{0xE5F0DD};
    Tally tally;
    constexpr std::size_t kInputs = 100'000;
    for (std::size_t i = 0; i < kInputs; ++i) {
        check_one(mutate(random_valid(rng), rng), tally);
        if (HasFatalFailure()) return;  // first canonicity break is enough
    }
    EXPECT_EQ(tally.accepted + tally.rejected, kInputs);
    // The corpus must exercise both outcomes or the harness is broken.
    EXPECT_GT(tally.accepted, kInputs / 20);
    EXPECT_GT(tally.rejected, kInputs / 20);
}

TEST(CodecFuzz, CorpusIsAPureFunctionOfTheSeed) {
    auto run = [] {
        Rng rng{77};
        Tally tally;
        for (std::size_t i = 0; i < 5'000; ++i) {
            check_one(mutate(random_valid(rng), rng), tally);
        }
        return std::pair{tally.accepted, tally.rejected};
    };
    EXPECT_EQ(run(), run());
}

TEST(CodecFuzz, DegenerateInputsRejected) {
    Tally tally;
    check_one({}, tally);
    check_one({0x01}, tally);
    check_one({0x01, 0x00}, tally);
    check_one(std::vector<std::uint8_t>(3, 0xFF), tally);
    check_one(std::vector<std::uint8_t>(1024, 0x00), tally);
    EXPECT_EQ(tally.accepted, 0u);
    EXPECT_EQ(tally.rejected, 5u);
}

TEST(CodecFuzz, BitFlippedValidRecordsAlmostAlwaysCaughtByChecksum) {
    // Single bit flips must ALWAYS be caught: CRC-16 detects every 1-bit
    // error.  (Multi-flip escapes are possible at ~2^-16 and are covered by
    // the canonicity property above.)
    Rng rng{31337};
    for (std::size_t i = 0; i < 2'000; ++i) {
        std::vector<std::uint8_t> bytes = random_valid(rng);
        const std::uint64_t byte = rng.uniform_int(0, bytes.size() - 1);
        bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        EXPECT_FALSE(decode_data(bytes).has_value());
        EXPECT_FALSE(decode_trailer(bytes).has_value());
        EXPECT_FALSE(decode_feedback(bytes).has_value());
        EXPECT_FALSE(decode_nack(bytes).has_value());
        EXPECT_FALSE(decode_repair(bytes).has_value());
    }
}

// Every tag byte peek_type accepts has a generator in the corpus, so a new
// wire type cannot ship without structure-aware fuzz coverage.
TEST(CodecFuzz, CorpusCoversEveryAcceptedTag) {
    std::set<std::uint8_t> accepted;
    for (unsigned b = 0; b < 256; ++b) {
        const std::vector<std::uint8_t> tag{static_cast<std::uint8_t>(b)};
        if (peek_type(tag).has_value()) accepted.insert(tag.front());
    }
    std::set<std::uint8_t> generated;
    Rng rng{5};
    for (std::size_t i = 0; i < 1'000; ++i) {
        generated.insert(random_valid(rng).front());
    }
    EXPECT_EQ(generated, accepted);
}

TEST(CodecFuzz, EmptyNackIsNonCanonical) {
    // A sealed request naming no missing packets and no rank deficit is
    // meaningless; the decoder must reject it even with a valid CRC.
    NackRequest n;
    n.seq = 7;
    n.window = 3;
    EXPECT_FALSE(decode_nack(encode(n)).has_value());
    n.rank_deficit = 1;
    EXPECT_TRUE(decode_nack(encode(n)).has_value());
}

}  // namespace
