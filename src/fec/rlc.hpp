// Sliding-window random-linear streaming code (DESIGN.md §12).
//
// The encoder keeps an elastic window of the last W source symbols and, on
// demand, emits a repair symbol: a random GF(256) linear combination of the
// window, identified on the wire by (base, count, cseed) — the coefficient
// vector is re-expanded from the 64-bit seed at the receiver, so repair
// headers stay small and constant-size.
//
// The decoder runs on-the-fly Gaussian elimination: every arriving source
// or repair symbol is reduced against the stored rows; innovative rows bump
// the received rank (which never decreases), singleton rows decode a source
// symbol and cascade back-substitution through the remaining rows.  The
// decoder also keeps the in-order delivery log the paper's playout metrics
// need: symbol i is delivered in order at the first instant i and every
// j < i are resolved (arrived, decoded, or declared lost by window expiry).
//
// Two operating modes share every line of control flow:
//  * payload mode (symbol_bytes > 0): full byte-level coding, used by the
//    unit/property/fuzz tests and the encoder round-trip;
//  * rank-only mode (symbol_bytes == 0): the simulator never materialises
//    payload bits, so the protocol arm runs the same elimination over the
//    real coefficient vectors to decide *which* lost packets are recovered
//    and *when*, skipping only the payload XORs.  The decoded sets of the
//    two modes are identical by construction (and pinned by tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace espread::fec {

/// Largest encoding window / repair span (count travels in one wire byte).
inline constexpr std::size_t kMaxWindow = 255;

/// Expands the repair coefficient vector from its wire seed: `count` bytes,
/// deterministically derived from `cseed`, never all zero (a zero vector
/// would waste the repair; the last coefficient is forced to 1 in that
/// astronomically unlikely draw).
void expand_coefficients(std::uint64_t cseed, std::size_t count,
                         std::uint8_t* out) noexcept;

/// A repair symbol as produced by the encoder (payload mode).
struct RepairSymbol {
    std::uint64_t base = 0;   ///< first source index in the combination
    std::size_t count = 0;    ///< source symbols combined
    std::uint64_t cseed = 0;  ///< coefficient seed
    std::vector<std::uint8_t> payload;
};

/// Elastic-window RLC encoder over fixed-size symbols.
class RlcEncoder {
public:
    /// `max_window` in [1, kMaxWindow]; `symbol_bytes` > 0; `seed` drives
    /// the coefficient draws (sim::Rng stream).
    RlcEncoder(std::size_t max_window, std::size_t symbol_bytes,
               std::uint64_t seed);

    /// Appends a source symbol (zero-padded to symbol_bytes; `len` must not
    /// exceed it) and returns its index.  Slides the window once full.
    std::uint64_t add_source(const std::uint8_t* data, std::size_t len);

    /// Emits a repair over the current window; requires at least one source.
    RepairSymbol make_repair();

    std::uint64_t next_index() const noexcept { return next_; }
    std::uint64_t window_base() const noexcept {
        return next_ > window_ ? next_ - window_ : 0;
    }

private:
    std::size_t window_;
    std::size_t symbol_bytes_;
    sim::Rng rng_;
    std::uint64_t next_ = 0;
    std::vector<std::uint8_t> ring_;  ///< window_ * symbol_bytes_
};

/// On-the-fly Gaussian-elimination decoder with in-order delivery tracking.
class RlcDecoder {
public:
    /// In-order delivery log entry: symbol `index` was resolved at time
    /// `at`; `lost` means it expired out of the encoding window undecoded.
    struct InOrderEvent {
        std::uint64_t index = 0;
        double at = 0.0;
        bool lost = false;
    };

    /// A source symbol recovered from repair equations (not received
    /// directly), with the decode timestamp.
    struct DecodedEvent {
        std::uint64_t index = 0;
        double at = 0.0;
    };

    /// `max_window` in [1, kMaxWindow]; `symbol_bytes` == 0 selects
    /// rank-only mode.
    explicit RlcDecoder(std::size_t max_window, std::size_t symbol_bytes = 0);

    /// A source symbol arrived intact at time `at`.  Stale (index below the
    /// current base) and duplicate arrivals are counted and ignored.
    void add_source(std::uint64_t index, const std::uint8_t* data,
                    std::size_t len, double at);

    /// A repair over [base, base+count) with coefficient seed `cseed`
    /// arrived at time `at`.  Returns the number of source symbols newly
    /// decoded by this repair (directly or by cascade).  `payload`/`len`
    /// are ignored in rank-only mode.
    std::size_t add_repair(std::uint64_t base, std::size_t count,
                           std::uint64_t cseed, const std::uint8_t* payload,
                           std::size_t len, double at);

    /// Declares every unresolved symbol below `new_base` lost (the encoder
    /// window has slid past them; no future repair can cover them) and
    /// drops stored rows that reference them.
    void advance_base(std::uint64_t new_base, double at);

    /// End of stream: resolves everything still pending (undecoded symbols
    /// become losses) and flushes the in-order log.
    void close(double at);

    /// Received rank: count of innovative equations (sources + useful
    /// repairs) seen so far.  Never decreases.
    std::size_t rank() const noexcept { return rank_; }

    std::uint64_t base() const noexcept { return base_; }
    std::size_t sources_received() const noexcept { return sources_received_; }
    std::size_t repairs_received() const noexcept { return repairs_received_; }
    /// Repairs that carried no new information (or referenced expired
    /// symbols and had to be discarded).
    std::size_t repairs_redundant() const noexcept { return repairs_redundant_; }
    std::size_t stale_packets() const noexcept { return stale_; }
    std::size_t symbols_lost() const noexcept { return lost_; }

    /// Symbols in [base(), next tracked index) that are neither received,
    /// decoded, nor declared lost — the decoder's rank deficit.  This is
    /// what a receiver-driven repair request (proto::NackRequest) reports:
    /// `unresolved()` fresh repairs over the current window would (with
    /// probability ~1) restore full rank.
    std::size_t unresolved() const noexcept { return unknown_; }

    /// Source symbols recovered via repairs, in decode order.
    const std::vector<DecodedEvent>& decoded() const noexcept {
        return decoded_;
    }

    /// In-order delivery log (monotone in index).
    const std::vector<InOrderEvent>& in_order_log() const noexcept {
        return in_order_;
    }

    /// Payload of a resolved-known symbol still inside the tracked span;
    /// nullptr if unknown, lost, expired, or in rank-only mode.
    const std::uint8_t* payload(std::uint64_t index) const noexcept;

private:
    enum class SymState : std::uint8_t { kUnknown, kKnown, kLost };

    /// Ring slots for the tracked span [lo_, next_).  The span never
    /// exceeds kMaxWindow: a source extends it to at most W past the base
    /// it implies, a repair to at most its count past its own base (or
    /// past base_ when it starts below it), and advance_base logs indices
    /// it jumps over without tracking them.  Also the coefficient stride
    /// of a row slot: a row's slot starts at a tracked column, so its
    /// columns fit in the same span.
    static constexpr std::size_t kSpan = 256;
    static_assert(kSpan > kMaxWindow && (kSpan & (kSpan - 1)) == 0);
    static constexpr std::uint64_t kMask = kSpan - 1;

    /// A row handle: coefficients over source indices [pivot, pivot+len)
    /// at coeffs(row)[0, len), payload (payload mode) at row_payload(row).
    /// `slot` names the row's buffers in the row pool; `off` counts the
    /// leading columns trimmed since the slot was filled.  Stored rows
    /// are normalised (coeffs[0] == 1), trimmed (coeffs[len-1] != 0),
    /// start their slot (off == 0) and, because substitute() and
    /// advance_base() keep them so, reference only unknown columns.
    struct Row {
        std::uint64_t pivot = 0;
        std::uint32_t slot = 0;
        std::uint16_t off = 0;
        std::uint16_t len = 0;
    };

    std::uint8_t* coeffs(const Row& r) noexcept {
        return row_coeffs_.data() + r.slot * kSpan + r.off;
    }
    std::uint8_t* row_payload(const Row& r) noexcept {
        return row_payload_.data() + r.slot * symbol_bytes_;
    }
    std::uint8_t* sym_payload(std::uint64_t index) noexcept {
        return sym_payload_.data() + (index & kMask) * symbol_bytes_;
    }
    /// A pool slot for a new row; reuses released slots, so the pool only
    /// grows to the most rows ever alive at once.
    std::uint32_t acquire_slot();
    /// The stored row pivoted at `pivot`, or rows_.end().
    std::vector<Row>::iterator find_row(std::uint64_t pivot) noexcept;
    void extend_to(std::uint64_t end) noexcept;
    /// Eliminates known columns and reduces against stored pivots.
    /// Returns false if the row vanished (no new information) or touches
    /// a lost column.
    bool reduce_row(Row& r);
    /// Stores a reduced, non-empty row (normalising the pivot coefficient)
    /// and queues it for solving if it became a singleton.
    void store_row(Row r);
    /// Marks `index` known (its payload already in place) and logs it
    /// (decoded_ when recovered via rows).
    void mark_known(std::uint64_t index, double at, bool via_repair);
    /// Eliminates the now-known column `index` from every stored row,
    /// queueing remainders and new singletons.
    void substitute(std::uint64_t index);
    /// Processes the solve/pending queues to fixpoint; returns the number
    /// of symbols decoded (recovered via repair equations).
    std::size_t drain(double at);
    void advance_in_order();
    void shrink_front() noexcept;

    std::size_t window_;
    std::size_t symbol_bytes_;
    std::uint64_t base_ = 0;       ///< lowest index still recoverable
    std::uint64_t lo_ = 0;         ///< lowest index still tracked
    std::uint64_t next_ = 0;       ///< one past the highest index tracked
    std::uint64_t in_order_next_ = 0;
    std::size_t rank_ = 0;
    std::size_t unknown_ = 0;      ///< kUnknown symbols in [lo_, next_)
    std::size_t sources_received_ = 0;
    std::size_t repairs_received_ = 0;
    std::size_t repairs_redundant_ = 0;
    std::size_t stale_ = 0;
    std::size_t lost_ = 0;
    double last_in_order_at_ = 0.0;
    std::vector<SymState> state_;            ///< ring over [lo_, next_)
    std::vector<double> at_;                 ///< resolve time, same ring
    std::vector<std::uint8_t> sym_payload_;  ///< same ring, payload mode
    std::vector<Row> rows_;  ///< stored rows, ascending pivot (order: D2)
    std::vector<std::uint8_t> row_coeffs_;   ///< kSpan bytes per slot
    std::vector<std::uint8_t> row_payload_;  ///< symbol_bytes_ per slot
    std::vector<std::uint32_t> free_slots_;
    std::vector<DecodedEvent> decoded_;
    std::vector<InOrderEvent> in_order_;
    std::vector<std::uint64_t> solve_queue_;
    std::vector<Row> pending_rows_;
};

}  // namespace espread::fec
