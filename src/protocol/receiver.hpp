// Client-side packet collection and per-window accounting (paper §4.2).
//
// The receiver assembles frames from fragments, marks frames undecodable
// when their prerequisites are missing (an MPEG B frame without its anchors
// cannot be displayed), and produces (a) the playback-order delivery mask
// that feeds the continuity metrics and (b) the per-layer maximum
// consecutive frame loss in transmission order — the estimate it ACKs back
// to the server.
//
// The datagram path makes no FIFO promise (net/fault.hpp injects
// reordering, duplication and corruption), so the receiver defends itself:
// duplicate fragments are discarded (each LDU counts once), packets for
// already-finalized windows are dropped instead of resurrecting window
// state, and a packet whose header conflicts with the frame's established
// geometry (fragment count / layer / wire position) is rejected rather
// than allowed to clobber it.  Each defense is counted and traced
// (kDupDropped / kStaleDropped) so impairment is observable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "sim/event_queue.hpp"

namespace espread::proto {

/// Result of closing one buffer window at its playout deadline.
struct WindowOutcome {
    /// Playback-order mask over the window's LDUs: true = frame arrived
    /// complete AND all its prerequisites are playable.
    espread::LossMask playback;
    /// Frames that arrived complete but could not be decoded.
    std::size_t undecodable = 0;
    /// Frames that arrived complete (decodable or not).
    std::size_t frames_received = 0;
    /// Per layer: largest run of consecutive frame losses in wire order,
    /// measured over the frames the server reported sending (trailer), or
    /// over the whole layer when the trailer was lost (frames the sender
    /// shed then count as lost).
    std::vector<std::size_t> layer_max_burst;
    /// Per layer: number of frames lost (same measurement span).
    std::vector<std::size_t> layer_lost;
    /// Whether the window trailer arrived.
    bool trailer_seen = false;
    /// Per local frame: the instant it became *playable* (all fragments
    /// arrived and every prerequisite playable); nullopt if it never did.
    /// Feeds the PlayoutClock.
    std::vector<std::optional<sim::SimTime>> playable_at;
};

/// Aggregates arriving packets; windows are finalized explicitly by the
/// session at each playout deadline.
class Receiver {
public:
    /// `layer_sizes`/`prereqs` come from the (negotiated) Planner; `window_ldus`
    /// is the LDU window size n.  Throws std::invalid_argument for n == 0,
    /// prereqs.size() != n, a prerequisite index >= n, or a prerequisite
    /// cycle (a self-reference included): like poset::Poset, the receiver
    /// takes an acyclic dependency relation.
    Receiver(std::size_t window_ldus, std::vector<std::size_t> layer_sizes,
             std::vector<std::vector<std::size_t>> prereqs);

    /// Handles one arriving data packet (FEC recovery re-injects
    /// recovered data packets here too).  `now` is the
    /// arrival instant; a frame's completion time is the arrival of its
    /// final missing fragment.
    void on_packet(const DataPacket& p, sim::SimTime now = 0);

    /// Handles the end-of-window trailer.
    void on_trailer(const WindowTrailer& t);

    /// Attaches a trace sink (non-owning; nullptr detaches).  The receiver
    /// then emits a client-track FrameComplete event when a frame's final
    /// fragment arrives.
    void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

    /// Rejects packets/trailers claiming a window >= `limit` (0 = no
    /// limit).  A corrupted-but-plausible header with a garbage window
    /// number would otherwise create per-window state that is never
    /// finalized and so never reclaimed.
    void set_window_limit(std::size_t limit) noexcept { window_limit_ = limit; }

    /// Closes window `w`: computes the outcome and releases its state.
    /// Windows may be finalized in any order; unseen windows yield an
    /// all-lost outcome.  Closed windows cost a bit each, from window 0.
    ///
    /// The outcome lives in a buffer the receiver owns and reuses: the
    /// reference stays valid, and its contents unchanged, until the next
    /// finalize() or report() call on this receiver.  Copy it to keep it
    /// longer.
    const WindowOutcome& finalize(std::size_t window);

    /// Computes the outcome of window `w` from its current state without
    /// closing it: no state is released and later packets still count.
    /// The recovery plane uses this to ACK a window at its transmission
    /// deadline while the window stays open for NACK-driven repairs until
    /// its playout budget runs out.  Same buffer, and the same reference
    /// lifetime, as finalize().
    const WindowOutcome& report(std::size_t window);

    /// Bitmap over the window's first min(NackRequest::kMaxFrames, n)
    /// local frames: bit f set iff frame f has not arrived complete yet.
    /// Already-finalized windows report zero (nothing can be repaired any
    /// more).  This is
    /// the `missing` field of a NackRequest; frames the sender shed before
    /// transmission are the sender's to filter out.
    std::uint64_t incomplete_frames(std::size_t window) const;

    /// Duplicate fragments (and repeated trailers) discarded.
    std::size_t duplicates_dropped() const noexcept { return duplicates_dropped_; }
    /// Packets/trailers for already-finalized windows discarded.
    std::size_t stale_dropped() const noexcept { return stale_dropped_; }
    /// Packets whose header conflicted with established frame geometry
    /// (corrupt-but-decodable headers, or fragment ids out of range).
    std::size_t mismatch_dropped() const noexcept { return mismatch_dropped_; }

private:
    /// One frame's reassembly state.  Fragments below 64 live in an
    /// inline bitmask; higher ones (frames of more than 64 packets, or a
    /// corrupt-but-plausible fragment count) spill into a sorted vector,
    /// so memory grows only with fragments that actually arrived.
    struct FrameAssembly {
        std::size_t num_fragments = 0;   ///< 0 = no fragment seen yet
        std::size_t received = 0;        ///< distinct fragments arrived
        std::uint64_t low = 0;           ///< bit i set = fragment i arrived, i < 64
        std::vector<std::size_t> high;   ///< arrived fragments >= 64, ascending
        std::size_t layer = 0;
        std::size_t tx_pos = 0;
        sim::SimTime completed_at = 0;  ///< arrival of the last fragment
        bool complete() const noexcept {
            return num_fragments != 0 && received == num_fragments;
        }
        /// Marks `fragment` arrived; false if it already had.
        bool insert(std::size_t fragment);
        /// Back to "no fragment seen" (layer, position and completion
        /// time are rewritten before they are read again).
        void reset() noexcept {
            num_fragments = 0;
            received = 0;
            low = 0;
            high.clear();
        }
    };
    struct WindowState {
        std::size_t window = 0;  ///< the slot is free once this is finalized
        /// By local frame index: window_ldus entries once a data packet
        /// reached this slot, empty before.  A reused slot keeps its table
        /// and resets each frame in place.
        std::vector<FrameAssembly> frames;
        std::vector<std::size_t> layer_sent;  // from trailer
        bool trailer_seen = false;
        /// Bit f set = local frame f (< 64) arrived complete.
        std::uint64_t complete = 0;
        /// The receiver's change count when a frame of this window last
        /// completed, its trailer arrived or the slot opened: the outcome
        /// depends on nothing else.
        std::uint64_t version = 0;
    };

    void trace_drop(obs::EventType type, const DataPacket& p, sim::SimTime now);
    /// Fills out_ with window `window`'s outcome, unless it already holds
    /// it: report() at the ACK and finalize() at the playout deadline
    /// often see the same state.
    void compute_outcome(std::size_t window);
    /// frame_index % window_ldus_, by multiply-high for 32-bit indexes.
    std::size_t local_of(std::size_t frame_index) const noexcept;
    bool finalized(std::size_t window) const noexcept {
        return window < finalized_.size() && finalized_[window];
    }
    /// Open `window`'s state or nullptr; open() takes a free slot for it.
    const WindowState* find(std::size_t window) const noexcept;
    WindowState& open(std::size_t window);

    std::size_t window_ldus_;
    /// ~0 / window_ldus_ + 1: with it, local_of() computes the remainder
    /// of a 32-bit index exactly (Lemire, Kaser and Kurz, "Faster
    /// remainder by direct computation", 2019).
    std::uint64_t mod_magic_;
    std::vector<std::size_t> layer_sizes_;
    std::vector<std::size_t> layer_offset_;  ///< first got_ slot of each layer
    std::vector<std::vector<std::size_t>> prereqs_;
    /// Every frame, each after its prerequisites (Kahn order): one pass
    /// settles them all.
    std::vector<std::size_t> order_;
    /// Searched linearly: 2-3 are open in steady state, forged ones are
    /// bounded by window_limit_, and a free slot keeps its capacity.
    std::vector<WindowState> windows_;
    std::size_t last_slot_ = 0;  ///< slot open() returned last
    /// The outcome finalize()/report() return, and its working columns:
    /// per frame whether it plays and since when, per layer wire position
    /// whether it arrived.
    WindowOutcome out_;
    std::size_t out_window_ = 0;
    std::uint64_t out_version_ = 0;  ///< 0 = out_ holds no outcome
    std::uint64_t changes_ = 0;      ///< versions handed out so far
    std::vector<unsigned char> plays_;
    std::vector<sim::SimTime> ready_at_;
    std::vector<unsigned char> got_;
    std::vector<bool> finalized_;  ///< bit w set = window w closed
    std::size_t window_limit_ = 0;     ///< 0 = unlimited
    std::size_t duplicates_dropped_ = 0;
    std::size_t stale_dropped_ = 0;
    std::size_t mismatch_dropped_ = 0;
    obs::TraceSink* trace_ = nullptr;
};

}  // namespace espread::proto
