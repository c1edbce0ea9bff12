#include "protocol/codec.hpp"

#include <array>

namespace espread::proto {

namespace {

// Slicing-by-4 tables for CRC-16/CCITT-FALSE (poly 0x1021, MSB-first).
// kCrcTables[k][b] is the CRC contribution of byte b followed by k zero
// bytes: table 0 is the classic byte-at-a-time table, and each higher
// table advances the previous one by one zero byte
// (T[k][b] = (T[k-1][b] << 8) ^ T[0][T[k-1][b] >> 8]).  Computed at
// compile time, so the binary carries the 2 KiB of tables and no init
// code.
constexpr std::array<std::array<std::uint16_t, 256>, 4> make_crc_tables() {
    std::array<std::array<std::uint16_t, 256>, 4> t{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned crc = b << 8;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 0x8000u) ? ((crc << 1) ^ 0x1021u) : (crc << 1);
            crc &= 0xFFFFu;
        }
        t[0][b] = static_cast<std::uint16_t>(crc);
    }
    for (std::size_t k = 1; k < 4; ++k) {
        for (unsigned b = 0; b < 256; ++b) {
            const unsigned prev = t[k - 1][b];
            t[k][b] = static_cast<std::uint16_t>(((prev << 8) & 0xFFFFu) ^
                                                 t[0][prev >> 8]);
        }
    }
    return t;
}

constexpr std::array<std::array<std::uint16_t, 256>, 4> kCrcTables =
    make_crc_tables();

}  // namespace

std::uint16_t wire_checksum(const std::uint8_t* data, std::size_t size) noexcept {
    // CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection/xorout.
    // Slicing-by-4: four table lookups per 4 input bytes instead of 32
    // conditional shift-xors (test_codec checks it against a bitwise
    // reference at every length 0..1100 and against the standard check
    // value 0x29B1 of "123456789").
    unsigned crc = 0xFFFFu;
    std::size_t i = 0;
    for (; i + 4 <= size; i += 4) {
        const unsigned t0 = data[i] ^ (crc >> 8);
        const unsigned t1 = data[i + 1] ^ (crc & 0xFFu);
        crc = kCrcTables[3][t0] ^ kCrcTables[2][t1] ^
              kCrcTables[1][data[i + 2]] ^ kCrcTables[0][data[i + 3]];
    }
    for (; i < size; ++i) {
        crc = ((crc << 8) & 0xFFFFu) ^ kCrcTables[0][(crc >> 8) ^ data[i]];
    }
    return static_cast<std::uint16_t>(crc);
}

namespace {

constexpr std::size_t kChecksumBytes = 2;

/// Appends the record checksum over everything encoded so far.
void seal(std::vector<std::uint8_t>& out) {
    const std::uint16_t crc = wire_checksum(out.data(), out.size());
    out.push_back(static_cast<std::uint8_t>(crc >> 8));
    out.push_back(static_cast<std::uint8_t>(crc));
}

/// Verifies the trailing checksum; false for records too short to carry one.
bool checksum_ok(const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < kChecksumBytes + 1) return false;
    const std::size_t body = bytes.size() - kChecksumBytes;
    const std::uint16_t stored =
        static_cast<std::uint16_t>((bytes[body] << 8) | bytes[body + 1]);
    return wire_checksum(bytes.data(), body) == stored;
}

/// Big-endian fixed-width writers/readers.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    put_u32(out, static_cast<std::uint32_t>(v >> 32));
    put_u32(out, static_cast<std::uint32_t>(v));
}

/// Cursor-based reader over the record body (the bytes before the trailing
/// checksum) that refuses to run past the end.
class Reader {
public:
    /// Precondition: checksum_ok(bytes), so bytes.size() > kChecksumBytes.
    explicit Reader(const std::vector<std::uint8_t>& bytes)
        : bytes_(bytes), limit_(bytes.size() - kChecksumBytes) {}

    bool u8(std::uint8_t& v) {
        if (pos_ + 1 > limit_) return false;
        v = bytes_[pos_++];
        return true;
    }
    bool u32(std::uint32_t& v) {
        if (pos_ + 4 > limit_) return false;
        v = (static_cast<std::uint32_t>(bytes_[pos_]) << 24) |
            (static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 16) |
            (static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 8) |
            static_cast<std::uint32_t>(bytes_[pos_ + 3]);
        pos_ += 4;
        return true;
    }
    bool u64(std::uint64_t& v) {
        std::uint32_t hi = 0;
        std::uint32_t lo = 0;
        if (!u32(hi) || !u32(lo)) return false;
        v = (static_cast<std::uint64_t>(hi) << 32) | lo;
        return true;
    }
    bool exhausted() const { return pos_ == limit_; }

private:
    const std::vector<std::uint8_t>& bytes_;
    std::size_t limit_;
    std::size_t pos_ = 0;
};

constexpr std::uint8_t kFlagRetransmission = 1u << 0;

}  // namespace

std::vector<std::uint8_t> encode(const DataPacket& p) {
    std::vector<std::uint8_t> out;
    out.reserve(data_packet_header_bytes());
    put_u8(out, static_cast<std::uint8_t>(WireType::kData));
    put_u32(out, static_cast<std::uint32_t>(p.seq));
    put_u32(out, static_cast<std::uint32_t>(p.window));
    put_u8(out, static_cast<std::uint8_t>(p.layer));
    put_u32(out, static_cast<std::uint32_t>(p.tx_pos));
    put_u32(out, static_cast<std::uint32_t>(p.frame_index));
    put_u8(out, static_cast<std::uint8_t>(p.fragment));
    put_u8(out, static_cast<std::uint8_t>(p.num_fragments));
    put_u32(out, static_cast<std::uint32_t>(p.size_bits));
    std::uint8_t flags = 0;
    if (p.retransmission) flags |= kFlagRetransmission;
    put_u8(out, flags);
    put_u32(out, static_cast<std::uint32_t>(p.fec_group));
    seal(out);
    return out;
}

std::size_t data_packet_header_bytes() noexcept {
    // tag + seq + window + layer + tx_pos + frame + frag + nfrags + size +
    // flags + fec_group + crc16.  seq and frame_index travel as 32-bit
    // values — 4 G packets / frames per session is ample — keeping the
    // header within the 256 bits the simulator budgets per packet.
    return 1 + 4 + 4 + 1 + 4 + 4 + 1 + 1 + 4 + 1 + 4 + kChecksumBytes;
}

std::vector<std::uint8_t> encode(const RepairPacket& r) {
    std::vector<std::uint8_t> out;
    out.reserve(repair_packet_header_bytes());
    put_u8(out, static_cast<std::uint8_t>(WireType::kRepair));
    put_u32(out, static_cast<std::uint32_t>(r.seq));
    put_u32(out, static_cast<std::uint32_t>(r.window));
    put_u32(out, static_cast<std::uint32_t>(r.base));
    put_u8(out, static_cast<std::uint8_t>(r.count));
    put_u64(out, r.cseed);
    put_u32(out, static_cast<std::uint32_t>(r.size_bits));
    seal(out);
    return out;
}

std::size_t repair_packet_header_bytes() noexcept {
    // tag + seq + window + base + count + cseed + size + crc16: the
    // coefficient vector is derived from cseed at the receiver, so the
    // repair header is constant-size and fits the same 256-bit budget as
    // the data header.
    return 1 + 4 + 4 + 4 + 1 + 8 + 4 + kChecksumBytes;
}

std::vector<std::uint8_t> encode(const NackRequest& n) {
    std::vector<std::uint8_t> out;
    out.reserve(nack_request_header_bytes());
    put_u8(out, static_cast<std::uint8_t>(WireType::kNack));
    put_u32(out, static_cast<std::uint32_t>(n.seq));
    put_u32(out, static_cast<std::uint32_t>(n.window));
    put_u64(out, n.missing);
    put_u8(out, static_cast<std::uint8_t>(n.rank_deficit));
    put_u8(out, static_cast<std::uint8_t>(n.retry));
    seal(out);
    return out;
}

std::size_t nack_request_header_bytes() noexcept {
    // tag + seq + window + missing bitmap + rank_deficit + retry + crc16.
    // 21 bytes = 168 bits, comfortably inside the simulator's 512-bit
    // feedback budget (cfg.feedback_bits), so NACKs cost one feedback-sized
    // datagram on the wire.
    return 1 + 4 + 4 + 8 + 1 + 1 + kChecksumBytes;
}

std::vector<std::uint8_t> encode(const WindowTrailer& t) {
    std::vector<std::uint8_t> out;
    put_u8(out, static_cast<std::uint8_t>(WireType::kTrailer));
    put_u64(out, t.seq);
    put_u32(out, static_cast<std::uint32_t>(t.window));
    put_u8(out, static_cast<std::uint8_t>(t.layer_sent.size()));
    for (const std::size_t sent : t.layer_sent) {
        put_u32(out, static_cast<std::uint32_t>(sent));
    }
    seal(out);
    return out;
}

std::vector<std::uint8_t> encode(const Feedback& f) {
    std::vector<std::uint8_t> out;
    put_u8(out, static_cast<std::uint8_t>(WireType::kFeedback));
    put_u64(out, f.seq);
    put_u32(out, static_cast<std::uint32_t>(f.window));
    put_u8(out, static_cast<std::uint8_t>(f.layer_max_burst.size()));
    for (std::size_t l = 0; l < f.layer_max_burst.size(); ++l) {
        put_u32(out, static_cast<std::uint32_t>(f.layer_max_burst[l]));
        put_u32(out, l < f.layer_lost.size()
                         ? static_cast<std::uint32_t>(f.layer_lost[l])
                         : 0u);
    }
    seal(out);
    return out;
}

std::optional<WireType> peek_type(const std::vector<std::uint8_t>& bytes) {
    if (bytes.empty()) return std::nullopt;
    switch (bytes.front()) {
        case static_cast<std::uint8_t>(WireType::kData): return WireType::kData;
        case static_cast<std::uint8_t>(WireType::kTrailer): return WireType::kTrailer;
        case static_cast<std::uint8_t>(WireType::kFeedback): return WireType::kFeedback;
        case static_cast<std::uint8_t>(WireType::kRepair): return WireType::kRepair;
        case static_cast<std::uint8_t>(WireType::kNack): return WireType::kNack;
        default: return std::nullopt;  // untrusted byte: an unknown tag is refused
    }
}

std::optional<DataPacket> decode_data(const std::vector<std::uint8_t>& bytes) {
    if (peek_type(bytes) != WireType::kData) return std::nullopt;
    if (!checksum_ok(bytes)) return std::nullopt;
    Reader r{bytes};
    std::uint8_t tag = 0;
    std::uint8_t layer = 0;
    std::uint8_t fragment = 0;
    std::uint8_t num_fragments = 0;
    std::uint8_t flags = 0;
    std::uint32_t window = 0;
    std::uint32_t tx_pos = 0;
    std::uint32_t size_bits = 0;
    std::uint32_t fec_group = 0;
    std::uint32_t seq = 0;
    std::uint32_t frame_index = 0;
    DataPacket p;
    if (!r.u8(tag) || !r.u32(seq) || !r.u32(window) || !r.u8(layer) ||
        !r.u32(tx_pos) || !r.u32(frame_index) || !r.u8(fragment) ||
        !r.u8(num_fragments) || !r.u32(size_bits) || !r.u8(flags) ||
        !r.u32(fec_group) || !r.exhausted()) {
        return std::nullopt;
    }
    if (num_fragments == 0 || fragment >= num_fragments) return std::nullopt;
    // Unknown flag bits are rejected (not silently dropped): every accepted
    // byte string re-encodes to exactly itself, which the fuzz harness
    // asserts (canonical codec).
    if ((flags & ~kFlagRetransmission) != 0) return std::nullopt;
    p.seq = seq;
    p.frame_index = frame_index;
    p.window = window;
    p.layer = layer;
    p.tx_pos = tx_pos;
    p.fragment = fragment;
    p.num_fragments = num_fragments;
    p.size_bits = size_bits;
    p.retransmission = (flags & kFlagRetransmission) != 0;
    p.fec_group = fec_group;
    return p;
}

std::optional<RepairPacket> decode_repair(const std::vector<std::uint8_t>& bytes) {
    if (peek_type(bytes) != WireType::kRepair) return std::nullopt;
    if (!checksum_ok(bytes)) return std::nullopt;
    Reader r{bytes};
    std::uint8_t tag = 0;
    std::uint8_t count = 0;
    std::uint32_t seq = 0;
    std::uint32_t window = 0;
    std::uint32_t base = 0;
    std::uint32_t size_bits = 0;
    RepairPacket p;
    if (!r.u8(tag) || !r.u32(seq) || !r.u32(window) || !r.u32(base) ||
        !r.u8(count) || !r.u64(p.cseed) || !r.u32(size_bits) ||
        !r.exhausted()) {
        return std::nullopt;
    }
    // A repair combining zero sources is meaningless; rejecting it keeps
    // the codec canonical (count re-encodes through a single byte).
    if (count == 0) return std::nullopt;
    p.seq = seq;
    p.window = window;
    p.base = base;
    p.count = count;
    p.size_bits = size_bits;
    return p;
}

std::optional<NackRequest> decode_nack(const std::vector<std::uint8_t>& bytes) {
    if (peek_type(bytes) != WireType::kNack) return std::nullopt;
    if (!checksum_ok(bytes)) return std::nullopt;
    Reader r{bytes};
    std::uint8_t tag = 0;
    std::uint8_t rank_deficit = 0;
    std::uint8_t retry = 0;
    std::uint32_t seq = 0;
    std::uint32_t window = 0;
    NackRequest n;
    if (!r.u8(tag) || !r.u32(seq) || !r.u32(window) || !r.u64(n.missing) ||
        !r.u8(rank_deficit) || !r.u8(retry) || !r.exhausted()) {
        return std::nullopt;
    }
    // A request naming nothing is meaningless on the wire; rejecting it
    // keeps the codec canonical and spares the server a no-op service.
    if (n.missing == 0 && rank_deficit == 0) return std::nullopt;
    n.seq = seq;
    n.window = window;
    n.rank_deficit = rank_deficit;
    n.retry = retry;
    return n;
}

std::optional<WindowTrailer> decode_trailer(const std::vector<std::uint8_t>& bytes) {
    if (peek_type(bytes) != WireType::kTrailer) return std::nullopt;
    if (!checksum_ok(bytes)) return std::nullopt;
    Reader r{bytes};
    std::uint8_t tag = 0;
    std::uint8_t layers = 0;
    std::uint32_t window = 0;
    WindowTrailer t;
    if (!r.u8(tag) || !r.u64(t.seq) || !r.u32(window) || !r.u8(layers)) {
        return std::nullopt;
    }
    t.window = window;
    t.layer_sent.resize(layers);
    for (std::uint8_t l = 0; l < layers; ++l) {
        std::uint32_t sent = 0;
        if (!r.u32(sent)) return std::nullopt;
        t.layer_sent[l] = sent;
    }
    if (!r.exhausted()) return std::nullopt;
    return t;
}

std::optional<Feedback> decode_feedback(const std::vector<std::uint8_t>& bytes) {
    if (peek_type(bytes) != WireType::kFeedback) return std::nullopt;
    if (!checksum_ok(bytes)) return std::nullopt;
    Reader r{bytes};
    std::uint8_t tag = 0;
    std::uint8_t layers = 0;
    std::uint32_t window = 0;
    Feedback f;
    if (!r.u8(tag) || !r.u64(f.seq) || !r.u32(window) || !r.u8(layers)) {
        return std::nullopt;
    }
    f.window = window;
    f.layer_max_burst.resize(layers);
    f.layer_lost.resize(layers);
    for (std::uint8_t l = 0; l < layers; ++l) {
        std::uint32_t burst = 0;
        std::uint32_t lost = 0;
        if (!r.u32(burst) || !r.u32(lost)) return std::nullopt;
        f.layer_max_burst[l] = burst;
        f.layer_lost[l] = lost;
    }
    if (!r.exhausted()) return std::nullopt;
    return f;
}

}  // namespace espread::proto
