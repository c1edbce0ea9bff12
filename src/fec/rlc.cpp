#include "fec/rlc.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "fec/gf256.hpp"

namespace espread::fec {

namespace {

/// Spans that jump further than this many windows past anything the decoder
/// has seen are treated as corrupt and discarded (a sound cap: a genuine
/// encoder advances its window one source at a time, so legitimate traffic
/// can never outrun the receiver by more than the in-flight span; without
/// the cap a fuzzed 2^60 base would ask the decoder to materialise that
/// many loss events).  The cap bounds the in-order log entries one packet
/// can add, not the symbol ring: advance_base logs the indices it jumps
/// over without tracking them, so the tracked span stays within
/// kMaxWindow (RlcDecoder::kSpan) even at the largest accepted jump.
constexpr std::uint64_t kMaxForwardWindows = 4;

/// Orders the decoder's stored rows by pivot, for std::lower_bound.
constexpr auto kPivotBelow = [](const auto& row, std::uint64_t pivot) {
    return row.pivot < pivot;
};

}  // namespace

void expand_coefficients(std::uint64_t cseed, std::size_t count,
                         std::uint8_t* out) noexcept {
    sim::Rng rng(cseed);
    std::uint8_t any = 0;
    std::size_t i = 0;
    while (i < count) {
        std::uint64_t bits = rng.next_u64();
        for (int b = 0; b < 8 && i < count; ++b, ++i) {
            out[i] = static_cast<std::uint8_t>(bits & 0xFFu);
            any |= out[i];
            bits >>= 8;
        }
    }
    if (any == 0 && count > 0) out[count - 1] = 1;
}

// ---------------------------------------------------------------------------
// Encoder

RlcEncoder::RlcEncoder(std::size_t max_window, std::size_t symbol_bytes,
                       std::uint64_t seed)
    : window_(max_window), symbol_bytes_(symbol_bytes), rng_(seed) {
    if (window_ == 0 || window_ > kMaxWindow) {
        throw std::invalid_argument("RlcEncoder: window must be in [1, 255]");
    }
    if (symbol_bytes_ == 0) {
        throw std::invalid_argument("RlcEncoder: symbol_bytes must be > 0");
    }
    ring_.assign(window_ * symbol_bytes_, 0);
}

std::uint64_t RlcEncoder::add_source(const std::uint8_t* data,
                                     std::size_t len) {
    if (len > symbol_bytes_) {
        throw std::invalid_argument("RlcEncoder: source exceeds symbol size");
    }
    const std::uint64_t index = next_++;
    std::uint8_t* slot =
        ring_.data() + (index % window_) * symbol_bytes_;
    std::fill(slot, slot + symbol_bytes_, std::uint8_t{0});
    std::copy(data, data + len, slot);
    return index;
}

RepairSymbol RlcEncoder::make_repair() {
    if (next_ == 0) {
        throw std::logic_error("RlcEncoder: repair before any source");
    }
    RepairSymbol r;
    r.base = window_base();
    r.count = static_cast<std::size_t>(next_ - r.base);
    r.cseed = rng_.next_u64();
    std::uint8_t coeffs[kMaxWindow];
    expand_coefficients(r.cseed, r.count, coeffs);
    r.payload.assign(symbol_bytes_, 0);
    for (std::size_t j = 0; j < r.count; ++j) {
        const std::uint8_t* src =
            ring_.data() + ((r.base + j) % window_) * symbol_bytes_;
        gf_mul_row_add(r.payload.data(), src, symbol_bytes_, coeffs[j]);
    }
    return r;
}

// ---------------------------------------------------------------------------
// Decoder

RlcDecoder::RlcDecoder(std::size_t max_window, std::size_t symbol_bytes)
    : window_(max_window), symbol_bytes_(symbol_bytes) {
    if (window_ == 0 || window_ > kMaxWindow) {
        throw std::invalid_argument("RlcDecoder: window must be in [1, 255]");
    }
    state_.resize(kSpan);
    at_.resize(kSpan);
    sym_payload_.resize(kSpan * symbol_bytes_);
}

std::uint32_t RlcDecoder::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    const auto slot = static_cast<std::uint32_t>(row_coeffs_.size() / kSpan);
    row_coeffs_.resize(row_coeffs_.size() + kSpan);
    row_payload_.resize(row_payload_.size() + symbol_bytes_);
    return slot;
}

std::vector<RlcDecoder::Row>::iterator RlcDecoder::find_row(
    std::uint64_t pivot) noexcept {
    const auto it =
        std::lower_bound(rows_.begin(), rows_.end(), pivot, kPivotBelow);
    return it != rows_.end() && it->pivot == pivot ? it : rows_.end();
}

void RlcDecoder::extend_to(std::uint64_t end) noexcept {
    for (; next_ < end; ++next_) {
        state_[next_ & kMask] = SymState::kUnknown;
        ++unknown_;
    }
}

const std::uint8_t* RlcDecoder::payload(std::uint64_t index) const noexcept {
    if (symbol_bytes_ == 0 || index < lo_ || index >= next_ ||
        state_[index & kMask] != SymState::kKnown) {
        return nullptr;
    }
    return sym_payload_.data() + (index & kMask) * symbol_bytes_;
}

void RlcDecoder::add_source(std::uint64_t index, const std::uint8_t* data,
                            std::size_t len, double at) {
    // A source beyond any plausible in-flight span is corrupt input.
    if (index > next_ && index - next_ > kMaxForwardWindows * window_) {
        ++stale_;
        return;
    }
    // Source `index` proves the encoder window has slid past index - W.
    if (index + 1 > window_) advance_base(index + 1 - window_, at);
    if (index < base_) {
        ++stale_;
        return;
    }
    // No stored row reaches past next_, so a source that extends the
    // span has no row to substitute into.
    const bool in_rows = index < next_;
    extend_to(index + 1);
    if (state_[index & kMask] != SymState::kUnknown) {
        ++stale_;  // duplicate delivery
        return;
    }
    ++sources_received_;
    ++rank_;  // e_index is always innovative (solved symbols are eliminated
              // from every stored row eagerly, so no stored combination can
              // equal a bare unknown)
    if (symbol_bytes_ > 0) {
        std::uint8_t* body = sym_payload(index);
        std::fill(body, body + symbol_bytes_, std::uint8_t{0});
        if (data != nullptr) {
            std::copy(data, data + std::min(len, symbol_bytes_), body);
        }
    }
    mark_known(index, at, /*via_repair=*/false);
    if (in_rows) {
        substitute(index);
        drain(at);
    }
    advance_in_order();
    shrink_front();
}

std::size_t RlcDecoder::add_repair(std::uint64_t base, std::size_t count,
                                   std::uint64_t cseed,
                                   const std::uint8_t* payload_bytes,
                                   std::size_t len, double at) {
    ++repairs_received_;
    if (count == 0 || count > kMaxWindow ||
        base > std::numeric_limits<std::uint64_t>::max() - count) {
        ++repairs_redundant_;
        return 0;
    }
    if (base > next_ && base - next_ > kMaxForwardWindows * window_) {
        ++repairs_redundant_;
        return 0;
    }
    // The repair's span pins down the encoder state: symbols below `base`
    // have left the encoding window, symbols up to base+count were sent.
    if (base > base_) advance_base(base, at);
    extend_to(base + count);

    Row r{base, acquire_slot(), 0, static_cast<std::uint16_t>(count)};
    std::uint8_t* c = coeffs(r);
    expand_coefficients(cseed, count, c);
    // Columns below the tracked span have expired: the row carries
    // information only if none of them is combined, and then it starts
    // at lo_ like every other row slot.
    if (base < lo_) {
        const std::size_t skip =
            static_cast<std::size_t>(std::min<std::uint64_t>(count, lo_ - base));
        if (std::any_of(c, c + skip, [](std::uint8_t v) { return v != 0; })) {
            r.len = 0;
        } else {
            std::copy(c + skip, c + count, c);
            r.pivot = lo_;
            r.len = static_cast<std::uint16_t>(count - skip);
        }
    }
    if (symbol_bytes_ > 0) {
        std::uint8_t* y = row_payload(r);
        std::fill(y, y + symbol_bytes_, std::uint8_t{0});
        if (payload_bytes != nullptr) {
            std::copy(payload_bytes,
                      payload_bytes + std::min(len, symbol_bytes_), y);
        }
    }
    std::size_t n_decoded = 0;
    if (r.len > 0 && reduce_row(r)) {
        ++rank_;
        store_row(r);
        n_decoded = drain(at);
    } else {
        free_slots_.push_back(r.slot);
        ++repairs_redundant_;
    }
    advance_in_order();
    shrink_front();
    return n_decoded;
}

bool RlcDecoder::reduce_row(Row& r) {
    std::uint8_t* c = coeffs(r);
    std::uint8_t* y = symbol_bytes_ > 0 ? row_payload(r) : nullptr;
    // One pass clears the known columns and finds the surviving ends.  No
    // column is lost: every lost symbol lies below base_, which
    // shrink_front drops from the span, and a repair keeps only its
    // tracked columns.  So the columns below the in-order frontier, all
    // resolved, are known without a state lookup.  Stored rows reference
    // unknown columns only, so subtracting them below never brings a
    // known column back.
    std::size_t j = in_order_next_ > r.pivot
                        ? static_cast<std::size_t>(std::min<std::uint64_t>(
                              r.len, in_order_next_ - r.pivot))
                        : 0;
    if (y != nullptr) {
        for (std::size_t k = 0; k < j; ++k) {
            gf_mul_row_add(y, sym_payload(r.pivot + k), symbol_bytes_, c[k]);
        }
    }
    std::fill(c, c + j, std::uint8_t{0});
    std::size_t lead = j;
    std::size_t end = 0;
    while (j < r.len) {
        // The columns' states are contiguous up to the ring's wrap.
        const std::size_t from = (r.pivot + j) & kMask;
        const std::size_t n = std::min<std::size_t>(r.len - j, kSpan - from);
        const SymState* st = state_.data() + from;
        for (std::size_t k = 0; k < n; ++k, ++j) {
            const bool known = st[k] == SymState::kKnown;
            if (known && y != nullptr) {
                gf_mul_row_add(y, sym_payload(r.pivot + j), symbol_bytes_,
                               c[j]);
            }
            const std::uint8_t v = known ? std::uint8_t{0} : c[j];
            c[j] = v;
            lead += static_cast<std::size_t>(lead == j && v == 0);
            end = v != 0 ? j + 1 : end;
        }
    }
    for (;;) {
        if (end <= lead) return false;  // the row vanished
        c += lead;
        r.off = static_cast<std::uint16_t>(r.off + lead);
        r.pivot += lead;
        r.len = static_cast<std::uint16_t>(end - lead);

        const auto it = find_row(r.pivot);
        if (it == rows_.end()) return true;

        // r -= c[0] * stored (stored rows are pivot-normalised).
        const Row& stored = *it;
        const std::uint8_t c0 = c[0];
        if (stored.len > r.len) {
            std::fill(c + r.len, c + stored.len, std::uint8_t{0});
            r.len = stored.len;
        }
        gf_mul_row_add(c, coeffs(stored), stored.len, c0);
        if (y != nullptr) {
            gf_mul_row_add(y, row_payload(stored), symbol_bytes_, c0);
        }
        // c[0] is now zero, so the pivot strictly advances: this
        // terminates.
        lead = 0;
        while (lead < r.len && c[lead] == 0) ++lead;
        end = r.len;
        while (end > lead && c[end - 1] == 0) --end;
    }
}

void RlcDecoder::store_row(Row r) {
    std::uint8_t* c = coeffs(r);
    const std::uint8_t inv = gf_inv(c[0]);
    if (inv != 1) {
        gf_mul_row(c, r.len, inv);
        if (symbol_bytes_ > 0) gf_mul_row(row_payload(r), symbol_bytes_, inv);
    }
    if (r.off != 0) {
        r.off = 0;
        std::copy(c, c + r.len, coeffs(r));
    }
    rows_.insert(
        std::lower_bound(rows_.begin(), rows_.end(), r.pivot, kPivotBelow), r);
    if (r.len == 1) solve_queue_.push_back(r.pivot);
}

void RlcDecoder::mark_known(std::uint64_t index, double at, bool via_repair) {
    state_[index & kMask] = SymState::kKnown;
    at_[index & kMask] = at;
    --unknown_;
    if (via_repair) decoded_.push_back({index, at});
}

void RlcDecoder::substitute(std::uint64_t index) {
    const std::uint8_t* x = symbol_bytes_ > 0 ? sym_payload(index) : nullptr;
    auto it = rows_.begin();
    for (; it != rows_.end() && it->pivot < index; ++it) {
        Row& row = *it;
        const std::uint64_t off = index - row.pivot;
        if (off >= row.len) continue;
        std::uint8_t* c = coeffs(row);
        const std::uint8_t f = c[off];
        if (f == 0) continue;
        if (x != nullptr) gf_mul_row_add(row_payload(row), x, symbol_bytes_, f);
        c[off] = 0;
        // The pivot coefficient is untouched (off > 0), so the row cannot
        // vanish; it can become a singleton.
        while (c[row.len - 1] == 0) --row.len;
        if (row.len == 1) solve_queue_.push_back(row.pivot);
    }
    if (it != rows_.end() && it->pivot == index) {
        // The row was led by this symbol: what remains is a derived
        // equation over the later unknowns.
        const Row rest = *it;
        rows_.erase(it);
        std::uint8_t* c = coeffs(rest);
        if (x != nullptr) {
            gf_mul_row_add(row_payload(rest), x, symbol_bytes_, c[0]);
        }
        c[0] = 0;
        pending_rows_.push_back(rest);
    }
}

std::size_t RlcDecoder::drain(double at) {
    std::size_t n_decoded = 0;
    while (!solve_queue_.empty() || !pending_rows_.empty()) {
        if (!solve_queue_.empty()) {
            const std::uint64_t p = solve_queue_.back();
            solve_queue_.pop_back();
            const auto it = find_row(p);
            if (it == rows_.end() || it->len != 1) continue;
            const Row row = *it;
            rows_.erase(it);
            if (symbol_bytes_ > 0) {
                const std::uint8_t* y = row_payload(row);
                std::copy(y, y + symbol_bytes_, sym_payload(p));
            }
            free_slots_.push_back(row.slot);
            mark_known(p, at, /*via_repair=*/true);
            ++n_decoded;
            substitute(p);
            continue;
        }
        Row r = pending_rows_.back();
        pending_rows_.pop_back();
        if (reduce_row(r)) {
            store_row(r);
        } else {
            // A vanished derived row is simply dropped: its information
            // was already counted when the original equation arrived.
            free_slots_.push_back(r.slot);
        }
    }
    return n_decoded;
}

void RlcDecoder::advance_base(std::uint64_t new_base, double at) {
    if (new_base <= base_) return;
    const std::uint64_t tracked_end = std::min(new_base, next_);
    for (std::uint64_t idx = base_; idx < tracked_end; ++idx) {
        if (state_[idx & kMask] == SymState::kUnknown) {
            state_[idx & kMask] = SymState::kLost;
            at_[idx & kMask] = at;
            --unknown_;
            ++lost_;
        }
    }
    // Stored rows pivoted below the new base reference expired unknowns.
    auto keep = rows_.begin();
    for (; keep != rows_.end() && keep->pivot < new_base; ++keep) {
        free_slots_.push_back(keep->slot);
    }
    rows_.erase(rows_.begin(), keep);
    base_ = new_base;
    advance_in_order();
    if (new_base > next_) {
        // Everything below new_base is resolved, so the log reached next_;
        // the indices jumped over expire into it without being tracked.
        lost_ += new_base - next_;
        last_in_order_at_ = std::max(at, last_in_order_at_);
        for (std::uint64_t idx = next_; idx < new_base; ++idx) {
            in_order_.push_back({idx, last_in_order_at_, true});
        }
        next_ = new_base;
        in_order_next_ = new_base;
    }
    shrink_front();
}

void RlcDecoder::close(double at) {
    advance_base(next_, at);
    advance_in_order();
    shrink_front();
}

void RlcDecoder::advance_in_order() {
    while (in_order_next_ < next_) {
        const std::size_t s = in_order_next_ & kMask;
        if (state_[s] == SymState::kUnknown) break;
        const double t = std::max(at_[s], last_in_order_at_);
        last_in_order_at_ = t;
        in_order_.push_back({in_order_next_, t, state_[s] == SymState::kLost});
        ++in_order_next_;
    }
}

void RlcDecoder::shrink_front() noexcept {
    lo_ = std::max(lo_, std::min(base_, in_order_next_));
}

}  // namespace espread::fec
