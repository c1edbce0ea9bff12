#include "protocol/receiver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "media/trace.hpp"
#include "protocol/config.hpp"
#include "protocol/planner.hpp"
#include "sim/rng.hpp"

namespace {

using espread::proto::DataPacket;
using espread::proto::Receiver;
using espread::proto::WindowOutcome;
using espread::proto::WindowTrailer;

DataPacket packet(std::size_t window, std::size_t frame_index, std::size_t layer,
                  std::size_t tx_pos, std::size_t fragment = 0,
                  std::size_t num_fragments = 1) {
    DataPacket p;
    p.window = window;
    p.frame_index = frame_index;
    p.layer = layer;
    p.tx_pos = tx_pos;
    p.fragment = fragment;
    p.num_fragments = num_fragments;
    return p;
}

WindowTrailer trailer(std::size_t window, std::vector<std::size_t> sent) {
    WindowTrailer t;
    t.window = window;
    t.layer_sent = std::move(sent);
    return t;
}

/// 4-LDU window, one layer, no dependencies.
Receiver flat_receiver() {
    return Receiver{4, {4}, std::vector<std::vector<std::size_t>>(4)};
}

TEST(Receiver, CompleteWindowPlaysEverything) {
    Receiver r = flat_receiver();
    for (std::size_t i = 0; i < 4; ++i) r.on_packet(packet(0, i, 0, i));
    r.on_trailer(trailer(0, {4}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.playback, (espread::LossMask{true, true, true, true}));
    EXPECT_EQ(out.frames_received, 4u);
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{0}));
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{0}));
    EXPECT_TRUE(out.trailer_seen);
}

// finalize() and report() hand out one receiver-owned buffer: a reference
// reads the latest call's outcome, so a caller keeping an outcome across
// calls copies it.
TEST(Receiver, OutcomeReferenceIsValidUntilTheNextCall) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    const WindowOutcome& first = r.report(0);
    const WindowOutcome kept = first;
    const WindowOutcome& second = r.finalize(1);  // never seen: all lost
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(second.playback, (espread::LossMask{false, false, false, false}));
    EXPECT_EQ(kept.playback, (espread::LossMask{true, false, false, false}));
    EXPECT_EQ(kept.frames_received, 1u);
}

// A frame's local index is frame_index mod n: by a multiply-high for
// 32-bit indexes and window sizes, by `%` above.  Both sides of the
// boundary and every residue near it must land on the same frame.
TEST(Receiver, LocalFrameIsIndexModWindowAcrossThe32BitBoundary) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{24},
                                std::size_t{45}, std::size_t{64}}) {
        for (const std::size_t base : {std::size_t{0}, std::size_t{0xFFFFFFFF} - 70,
                                       std::size_t{1} << 32, std::size_t{1} << 40}) {
            for (std::size_t idx = base; idx < base + 140; ++idx) {
                Receiver r{n, {n}, std::vector<std::vector<std::size_t>>(n)};
                r.on_packet(packet(0, idx, 0, idx % n));
                const WindowOutcome& out = r.finalize(0);
                espread::LossMask want(n, false);
                want[idx % n] = true;
                ASSERT_EQ(out.playback, want) << "n " << n << ", frame " << idx;
            }
        }
    }
}

TEST(Receiver, MissingFragmentMeansMissingFrame) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0, 0, 2));  // fragment 0 of 2
    r.on_packet(packet(0, 1, 0, 1));
    r.on_packet(packet(0, 2, 0, 2));
    r.on_packet(packet(0, 3, 0, 3));
    r.on_trailer(trailer(0, {4}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.playback, (espread::LossMask{false, true, true, true}));
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{1}));
}

TEST(Receiver, DuplicateFragmentsAreIdempotent) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0, 0, 2));
    r.on_packet(packet(0, 0, 0, 0, 0, 2));  // duplicate (e.g. retransmission)
    r.on_packet(packet(0, 0, 0, 0, 1, 2));
    r.on_trailer(trailer(0, {1}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_TRUE(out.playback[0]);
}

TEST(Receiver, BurstMeasuredInWireOrderNotPlaybackOrder) {
    Receiver r = flat_receiver();
    // Wire order carries frames 0,2,1,3 at positions 0..3; positions 1 and 2
    // are lost -> wire burst 2, although playback losses (frames 1,2) are
    // also adjacent here.
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(0, 3, 0, 3));
    r.on_trailer(trailer(0, {4}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{2}));
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{2}));
}

TEST(Receiver, TrailerLimitsMeasurementSpanToSentFrames) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(0, 1, 0, 1));
    // Only 2 of 4 frames were sent (deadline drop); both arrived.
    r.on_trailer(trailer(0, {2}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{0}));
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{0}));
    // Unsent frames still count as playback losses.
    EXPECT_EQ(out.playback, (espread::LossMask{true, true, false, false}));
}

TEST(Receiver, WithoutTrailerSpanCoversTheWholeLayer) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(0, 3, 0, 3));  // positions 1, 2 missing in between
    const WindowOutcome out = r.finalize(0);
    EXPECT_FALSE(out.trailer_seen);
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{2}));
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{2}));

    // A loss run at the window's tail, which usually takes the trailer
    // with it, still counts: the window holds four frames.
    Receiver tail = flat_receiver();
    tail.on_packet(packet(0, 0, 0, 0));
    const WindowOutcome t = tail.finalize(0);
    EXPECT_FALSE(t.trailer_seen);
    EXPECT_EQ(t.layer_max_burst, (std::vector<std::size_t>{3}));
    EXPECT_EQ(t.layer_lost, (std::vector<std::size_t>{3}));
}

TEST(Receiver, UnseenWindowIsTotalLoss) {
    Receiver r = flat_receiver();
    const WindowOutcome out = r.finalize(7);
    EXPECT_EQ(out.playback, (espread::LossMask{false, false, false, false}));
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{4}));
    EXPECT_EQ(out.frames_received, 0u);
}

TEST(Receiver, UndecodableWhenPrerequisiteMissing) {
    // Frames: 0 = I, 1 = B (needs 0 and 2), 2 = P (needs 0).
    std::vector<std::vector<std::size_t>> prereqs{{}, {0, 2}, {0}};
    Receiver r{3, {3}, prereqs};
    // I lost; P and B arrive -> both undecodable.
    r.on_packet(packet(0, 1, 0, 1));
    r.on_packet(packet(0, 2, 0, 2));
    r.on_trailer(trailer(0, {3}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.playback, (espread::LossMask{false, false, false}));
    EXPECT_EQ(out.undecodable, 2u);
    EXPECT_EQ(out.frames_received, 2u);
}

TEST(Receiver, ForwardPrerequisiteHandledByFixedPoint) {
    // B(0) needs P(2); P(2) needs I(1).  I lost -> P undecodable -> B
    // undecodable even though B sits before its prerequisites in playback.
    std::vector<std::vector<std::size_t>> prereqs{{2}, {}, {1}};
    Receiver r{3, {3}, prereqs};
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(0, 2, 0, 2));
    r.on_trailer(trailer(0, {3}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.playback, (espread::LossMask{false, false, false}));
    EXPECT_EQ(out.undecodable, 2u);
}

TEST(Receiver, WindowsIndependentAndReleasedAfterFinalize) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(1, 4, 0, 0));  // frame 4 = local 0 of window 1
    r.on_trailer(trailer(1, {1}));
    const WindowOutcome w1 = r.finalize(1);
    EXPECT_TRUE(w1.playback[0]);
    const WindowOutcome w0 = r.finalize(0);
    EXPECT_TRUE(w0.playback[0]);
    // Finalizing again yields the all-lost default (state released).
    const WindowOutcome again = r.finalize(0);
    EXPECT_FALSE(again.playback[0]);
}

TEST(Receiver, MultiLayerBurstsIndependent) {
    // Two layers of sizes 2 and 3.
    Receiver r{5, {2, 3}, std::vector<std::vector<std::size_t>>(5)};
    r.on_packet(packet(0, 0, 0, 0));  // layer 0 pos 0 ok; pos 1 lost
    r.on_packet(packet(0, 3, 1, 1));  // layer 1 pos 1 ok; pos 0, 2 lost
    r.on_trailer(trailer(0, {2, 3}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.layer_max_burst, (std::vector<std::size_t>{1, 1}));
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{1, 2}));
}

TEST(Receiver, RejectsInvalidConstruction) {
    EXPECT_THROW((Receiver{0, {}, {}}), std::invalid_argument);
    EXPECT_THROW((Receiver{3, {3}, std::vector<std::vector<std::size_t>>(2)}),
                 std::invalid_argument);
    EXPECT_THROW((Receiver{3, {3}, {{}, {3}, {}}}), std::invalid_argument);
    // Prerequisites must be acyclic, as in poset::Poset: a self-reference
    // and a 2-cycle are refused.
    EXPECT_THROW((Receiver{3, {3}, {{}, {1}, {}}}), std::invalid_argument);
    EXPECT_THROW((Receiver{3, {3}, {{2}, {}, {0}}}), std::invalid_argument);
}

// ---- hardening against non-FIFO and corrupted delivery --------------------

TEST(Receiver, DuplicatedThenReorderedPacketCountsEachLduOnce) {
    // Regression for the latent FIFO assumption: a frame's fragments arrive,
    // then a network-duplicated copy of fragment 0 shows up late (reordered
    // past the frame's completion).  The duplicate must be discarded, not
    // recounted, and the frame stays complete exactly once.
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0, 0, 2));
    r.on_packet(packet(0, 0, 0, 0, 1, 2));  // completes the frame
    r.on_packet(packet(0, 0, 0, 0, 0, 2));  // late duplicate of fragment 0
    EXPECT_EQ(r.duplicates_dropped(), 1u);
    r.on_trailer(trailer(0, {1}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_TRUE(out.playback[0]);
    EXPECT_EQ(out.frames_received, 1u);
}

TEST(Receiver, ConflictingGeometryCannotClobberEstablishedFrame) {
    // Pre-hardening, every packet overwrote num_fragments/layer/tx_pos, so
    // a corrupted-but-plausible header claiming num_fragments=1 would make
    // a half-arrived 2-fragment frame spuriously "complete".
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0, 0, 2));  // fragment 0 of 2
    r.on_packet(packet(0, 0, 0, 0, 0, 1));  // liar: claims 1 fragment total
    EXPECT_EQ(r.mismatch_dropped(), 1u);
    r.on_trailer(trailer(0, {1}));
    const WindowOutcome out = r.finalize(0);
    EXPECT_FALSE(out.playback[0]);  // fragment 1 of 2 never arrived
}

TEST(Receiver, StalePacketsForFinalizedWindowDiscarded) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    r.finalize(0);
    // Late arrivals for the closed window must not resurrect its state.
    r.on_packet(packet(0, 1, 0, 1));
    r.on_trailer(trailer(0, {4}));
    EXPECT_EQ(r.stale_dropped(), 2u);
    const WindowOutcome again = r.finalize(0);
    EXPECT_EQ(again.frames_received, 0u);
}

TEST(Receiver, DuplicateTrailerFirstWins) {
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0));
    r.on_packet(packet(0, 1, 0, 1));
    r.on_trailer(trailer(0, {2}));
    r.on_trailer(trailer(0, {4}));  // duplicated/corrupted repeat
    EXPECT_EQ(r.duplicates_dropped(), 1u);
    const WindowOutcome out = r.finalize(0);
    // Measurement span stays at the first trailer's 2 sent frames.
    EXPECT_EQ(out.layer_lost, (std::vector<std::size_t>{0}));
}

TEST(Receiver, ImpossibleHeadersRejected) {
    Receiver r = flat_receiver();
    DataPacket zero_frags = packet(0, 0, 0, 0, 0, 1);
    zero_frags.num_fragments = 0;
    r.on_packet(zero_frags);
    r.on_packet(packet(0, 0, 0, 0, /*fragment=*/5, /*num_fragments=*/2));
    DataPacket bad_layer = packet(0, 0, /*layer=*/9, 0);
    r.on_packet(bad_layer);
    EXPECT_EQ(r.mismatch_dropped(), 3u);
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.frames_received, 0u);
}

TEST(Receiver, WindowLimitRejectsGarbageWindowNumbers) {
    Receiver r = flat_receiver();
    r.set_window_limit(10);
    r.on_packet(packet(/*window=*/500, 0, 0, 0));
    r.on_trailer(trailer(500, {4}));
    EXPECT_EQ(r.mismatch_dropped(), 2u);
    r.on_packet(packet(9, 0, 0, 0));  // within limit: accepted
    const WindowOutcome out = r.finalize(9);
    EXPECT_EQ(out.frames_received, 1u);
}

// Fragments >= 64 spill past the inline mask: a 100-fragment frame still
// completes, and a repeat of its last fragment is a duplicate.
TEST(Receiver, LargeFrameSpillsPastInlineMask) {
    Receiver r = flat_receiver();
    for (std::size_t f = 100; f-- > 0;) {  // high fragments first
        r.on_packet(packet(0, 0, 0, 0, f, 100));
    }
    EXPECT_EQ(r.incomplete_frames(0) & 1u, 0u);
    r.on_packet(packet(0, 0, 0, 0, 99, 100));
    r.on_packet(packet(0, 0, 0, 0, 3, 100));
    EXPECT_EQ(r.duplicates_dropped(), 2u);
    const WindowOutcome out = r.finalize(0);
    EXPECT_TRUE(out.playback[0]);
    EXPECT_EQ(out.frames_received, 1u);
}

// A corrupt-but-plausible header claiming 2^40 fragments pins a frame
// that can never complete.  Its state grows only with the fragments that
// actually arrive (a dense per-fragment table would need 2^40 bits).
TEST(Receiver, HugeFragmentCountCostsOnlyWhatArrived) {
    constexpr std::size_t kHuge = std::size_t{1} << 40;
    Receiver r = flat_receiver();
    r.on_packet(packet(0, 0, 0, 0, 0, kHuge));
    r.on_packet(packet(0, 0, 0, 0, kHuge - 1, kHuge));
    r.on_packet(packet(0, 0, 0, 0, kHuge - 1, kHuge));  // duplicate, spilled
    r.on_packet(packet(0, 0, 0, 0, 0, 1));  // the real header now conflicts
    EXPECT_EQ(r.duplicates_dropped(), 1u);
    EXPECT_EQ(r.mismatch_dropped(), 1u);
    r.on_packet(packet(0, 1, 0, 1));
    EXPECT_EQ(r.incomplete_frames(0), 0b1101u);
    const WindowOutcome out = r.finalize(0);
    EXPECT_EQ(out.playback, (espread::LossMask{false, true, false, false}));
    EXPECT_EQ(out.frames_received, 1u);
}

/// The receiver's contract written the obvious way: frames in a
/// std::map by local index, arrived fragments in a std::set.  The
/// property test below holds the flat-state Receiver to it.
class ReferenceReceiver {
public:
    ReferenceReceiver(std::size_t n, std::vector<std::size_t> layer_sizes,
                      std::vector<std::vector<std::size_t>> prereqs)
        : n_(n), layer_sizes_(std::move(layer_sizes)), prereqs_(std::move(prereqs)) {}

    void set_window_limit(std::size_t limit) { limit_ = limit; }

    void on_packet(const DataPacket& p, espread::sim::SimTime now) {
        if (finalized_.count(p.window)) {
            ++stale;
            return;
        }
        if (p.num_fragments == 0 || p.fragment >= p.num_fragments ||
            p.layer >= layer_sizes_.size() || (limit_ != 0 && p.window >= limit_)) {
            ++mismatch;
            return;
        }
        Frame& fa = windows_[p.window].frames[p.frame_index % n_];
        if (fa.num_fragments == 0) {
            fa.num_fragments = p.num_fragments;
            fa.layer = p.layer;
            fa.tx_pos = p.tx_pos;
        } else if (fa.num_fragments != p.num_fragments || fa.layer != p.layer ||
                   fa.tx_pos != p.tx_pos) {
            ++mismatch;
            return;
        }
        if (!fa.received.insert(p.fragment).second) {
            ++duplicates;
            return;
        }
        if (fa.complete()) fa.completed_at = now;
    }

    void on_trailer(const WindowTrailer& t) {
        if (limit_ != 0 && t.window >= limit_) {
            ++mismatch;
            return;
        }
        if (finalized_.count(t.window)) {
            ++stale;
            return;
        }
        Window& w = windows_[t.window];
        if (w.trailer_seen) {
            ++duplicates;
            return;
        }
        w.layer_sent = t.layer_sent;
        w.trailer_seen = true;
    }

    WindowOutcome finalize(std::size_t window) {
        WindowOutcome out = report(window);
        finalized_.insert(window);
        windows_.erase(window);
        return out;
    }

    std::uint64_t incomplete_frames(std::size_t window) const {
        if (finalized_.count(window)) return 0;
        const std::size_t span = std::min<std::size_t>(n_, 64);
        std::uint64_t missing =
            span == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1;
        const auto it = windows_.find(window);
        if (it == windows_.end()) return missing;
        for (const auto& [local, fa] : it->second.frames) {
            if (local < span && fa.complete()) missing &= ~(std::uint64_t{1} << local);
        }
        return missing;
    }

    WindowOutcome report(std::size_t window) const {
        WindowOutcome out;
        const std::size_t layers = layer_sizes_.size();
        out.playback.assign(n_, false);
        out.layer_max_burst.assign(layers, 0);
        out.layer_lost.assign(layers, 0);
        out.playable_at.assign(n_, std::nullopt);
        const auto it = windows_.find(window);
        if (it == windows_.end()) {
            out.layer_max_burst = layer_sizes_;
            out.layer_lost = layer_sizes_;
            return out;
        }
        const Window& w = it->second;
        out.trailer_seen = w.trailer_seen;
        std::vector<bool> complete(n_, false);
        for (const auto& [local, fa] : w.frames) {
            if (fa.complete()) {
                complete[local] = true;
                ++out.frames_received;
            }
        }
        out.playback.assign(complete.begin(), complete.end());
        for (bool changed = true; changed;) {
            changed = false;
            for (std::size_t f = 0; f < n_; ++f) {
                for (const std::size_t q : prereqs_[f]) {
                    if (out.playback[f] && !out.playback[q]) {
                        out.playback[f] = false;
                        changed = true;
                    }
                }
            }
        }
        for (std::size_t f = 0; f < n_; ++f) {
            if (complete[f] && !out.playback[f]) ++out.undecodable;
        }
        for (const auto& [local, fa] : w.frames) {
            if (out.playback[local]) out.playable_at[local] = fa.completed_at;
        }
        for (bool changed = true; changed;) {
            changed = false;
            for (std::size_t f = 0; f < n_; ++f) {
                if (!out.playable_at[f]) continue;
                for (const std::size_t q : prereqs_[f]) {
                    if (*out.playable_at[q] > *out.playable_at[f]) {
                        out.playable_at[f] = out.playable_at[q];
                        changed = true;
                    }
                }
            }
        }
        for (const auto& [local, fa] : w.frames) {
            if (out.playable_at[local] && *out.playable_at[local] > fa.completed_at) {
                ++waited;
            }
        }
        for (std::size_t l = 0; l < layers; ++l) {
            std::vector<bool> got(layer_sizes_[l], false);
            for (const auto& [local, fa] : w.frames) {
                if (fa.layer == l && fa.complete() && fa.tx_pos < got.size()) {
                    got[fa.tx_pos] = true;
                }
            }
            // Without a trailer the whole layer is measured.
            std::size_t span = layer_sizes_[l];
            if (w.trailer_seen && l < w.layer_sent.size()) {
                span = std::min(w.layer_sent[l], layer_sizes_[l]);
            }
            std::size_t run = 0;
            for (std::size_t pos = 0; pos < span; ++pos) {
                run = got[pos] ? 0 : run + 1;
                if (!got[pos]) ++out.layer_lost[l];
                out.layer_max_burst[l] = std::max(out.layer_max_burst[l], run);
            }
        }
        return out;
    }

    std::size_t duplicates = 0;
    std::size_t stale = 0;
    std::size_t mismatch = 0;
    /// Playable frames whose prerequisites completed after them (counted
    /// on every report, so only its being nonzero means anything).
    mutable std::size_t waited = 0;

private:
    struct Frame {
        std::size_t num_fragments = 0;
        std::set<std::size_t> received;
        std::size_t layer = 0;
        std::size_t tx_pos = 0;
        espread::sim::SimTime completed_at = 0;
        bool complete() const { return received.size() == num_fragments; }
    };
    struct Window {
        std::map<std::size_t, Frame> frames;
        std::vector<std::size_t> layer_sent;
        bool trailer_seen = false;
    };
    std::size_t n_;
    std::vector<std::size_t> layer_sizes_;
    std::vector<std::vector<std::size_t>> prereqs_;
    std::map<std::size_t, Window> windows_;
    std::set<std::size_t> finalized_;
    std::size_t limit_ = 0;
};

void expect_same_outcome(const WindowOutcome& got, const WindowOutcome& want) {
    EXPECT_EQ(got.playback, want.playback);
    EXPECT_EQ(got.undecodable, want.undecodable);
    EXPECT_EQ(got.frames_received, want.frames_received);
    EXPECT_EQ(got.layer_max_burst, want.layer_max_burst);
    EXPECT_EQ(got.layer_lost, want.layer_lost);
    EXPECT_EQ(got.trailer_seen, want.trailer_seen);
    EXPECT_EQ(got.playable_at, want.playable_at);
}

/// One step of a random receiver workload.
struct Op {
    enum class Kind { kPacket, kTrailer, kFinalize, kReport } kind;
    DataPacket packet;
    WindowTrailer trailer;
    std::size_t window = 0;
};

/// Mutates one header field the way a corrupt-but-decodable record can.
void corrupt(DataPacket& p, espread::sim::Rng& rng) {
    switch (rng.uniform_int(0, 6)) {
        case 0: ++p.num_fragments; break;
        case 1: p.layer += 1 + rng.uniform_int(0, 2); break;
        case 2: ++p.tx_pos; break;
        case 3: p.fragment = p.num_fragments + rng.uniform_int(0, 3); break;
        case 4: p.num_fragments = std::size_t{1} << 40; break;
        case 5: p.num_fragments = 0; break;
        default: p.window = 1'000'000 + rng.uniform_int(0, 9); break;
    }
}

/// A seeded stream of windows: every frame's fragments, minus losses,
/// plus duplicates, corrupt headers, trailers (some repeated with
/// different counts), early finalizes that make later packets stale and
/// mid-stream report/incomplete_frames probes, then locally reordered.
struct Scenario {
    std::size_t n = 0;
    std::vector<std::size_t> layer_sizes;
    std::vector<std::vector<std::size_t>> prereqs;
    std::size_t windows = 0;
    std::size_t window_limit = 0;
    std::vector<Op> ops;
};

/// Draws sc.windows, sc.window_limit and sc.ops for the window structure
/// already in `sc`; local frame f goes out in layer layer_of[f] at wire
/// position pos_of[f].
void add_ops(Scenario& sc, const std::vector<std::size_t>& layer_of,
             const std::vector<std::size_t>& pos_of, espread::sim::Rng& rng) {
    const std::size_t layers = sc.layer_sizes.size();
    sc.windows = rng.uniform_int(1, 4);
    sc.window_limit = rng.bernoulli(0.5) ? 0 : sc.windows + 1;
    const double loss = 0.3 * rng.uniform();  // uniform in [0, 0.3)

    for (std::size_t w = 0; w < sc.windows; ++w) {
        for (std::size_t f = 0; f < sc.n; ++f) {
            if (rng.bernoulli(0.1)) continue;  // sender never sent it
            DataPacket base;
            base.window = w;
            base.frame_index = w * sc.n + f;
            base.layer = layer_of[f];
            base.tx_pos = pos_of[f];
            base.num_fragments = rng.bernoulli(0.1) ? rng.uniform_int(60, 100)
                                                    : rng.uniform_int(1, 4);
            for (std::size_t frag = 0; frag < base.num_fragments; ++frag) {
                DataPacket p = base;
                p.fragment = frag;
                const std::size_t copies = rng.bernoulli(loss) ? 0
                                           : rng.bernoulli(0.1) ? 2 : 1;
                for (std::size_t c = 0; c < copies; ++c) {
                    sc.ops.push_back({Op::Kind::kPacket, p, {}, w});
                }
                if (rng.bernoulli(0.03)) {
                    corrupt(p, rng);
                    sc.ops.push_back({Op::Kind::kPacket, p, {}, w});
                }
            }
        }
        const std::size_t trailers = rng.bernoulli(0.2) ? 0 : rng.bernoulli(0.1) ? 2 : 1;
        for (std::size_t t = 0; t < trailers; ++t) {
            WindowTrailer tr;
            tr.window = rng.bernoulli(0.05) ? 1'000'000 : w;
            tr.layer_sent.resize(rng.bernoulli(0.1) ? layers - 1 : layers);
            for (std::size_t l = 0; l < tr.layer_sent.size(); ++l) {
                tr.layer_sent[l] = rng.uniform_int(0, sc.layer_sizes[l] + 1);
            }
            sc.ops.push_back({Op::Kind::kTrailer, {}, tr, w});
        }
    }
    for (std::size_t i = 0; i < sc.windows; ++i) {
        if (rng.bernoulli(0.3)) {  // finalized early: later packets go stale
            Op fin{Op::Kind::kFinalize, {}, {}, rng.uniform_int(0, sc.windows - 1)};
            sc.ops.insert(sc.ops.begin() + static_cast<std::ptrdiff_t>(
                                               rng.uniform_int(0, sc.ops.size())),
                          fin);
        }
    }
    for (std::size_t i = 0; i < 4; ++i) {
        Op probe{Op::Kind::kReport, {}, {}, rng.uniform_int(0, sc.windows)};
        sc.ops.insert(sc.ops.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform_int(0, sc.ops.size())),
                      probe);
    }
    // Local reordering: swap neighbours up to a few places apart.
    for (std::size_t i = 0; i + 1 < sc.ops.size(); ++i) {
        if (rng.bernoulli(0.2)) {
            const std::size_t j =
                std::min(sc.ops.size() - 1, i + rng.uniform_int(1, 5));
            std::swap(sc.ops[i], sc.ops[j]);
        }
    }
}

Scenario make_scenario(std::uint64_t seed) {
    espread::sim::Rng rng{seed};
    Scenario sc;
    constexpr std::size_t kSizes[] = {1, 2, 3, 4, 7, 12, 24, 70};
    sc.n = kSizes[rng.uniform_int(0, 7)];
    const std::size_t layers = std::min<std::size_t>(sc.n, rng.uniform_int(1, 3));
    sc.layer_sizes.assign(layers, 0);
    std::vector<std::size_t> layer_of(sc.n), pos_of(sc.n);
    for (std::size_t f = 0; f < sc.n; ++f) {
        // Every layer gets at least one frame; the rest land anywhere.
        const std::size_t l = f < layers ? f : rng.uniform_int(0, layers - 1);
        layer_of[f] = l;
        pos_of[f] = sc.layer_sizes[l]++;
    }
    // Acyclic prerequisites, as poset::Poset guarantees: a frame needs only
    // frames ranked before it in a random relabelling of the window, so a
    // prerequisite sits on either side of its dependent in playback order.
    std::vector<std::size_t> label(sc.n);
    std::iota(label.begin(), label.end(), std::size_t{0});
    for (std::size_t i = sc.n; i > 1; --i) {
        std::swap(label[i - 1], label[rng.uniform_int(0, i - 1)]);
    }
    sc.prereqs.resize(sc.n);
    for (std::size_t rank = 1; rank < sc.n; ++rank) {
        if (rng.bernoulli(0.4)) {
            sc.prereqs[label[rank]].push_back(label[rng.uniform_int(0, rank - 1)]);
        }
    }
    add_ops(sc, layer_of, pos_of, rng);
    return sc;
}

/// What a batch of scenarios exercised, summed over its streams.
struct Tally {
    std::size_t dups = 0, stale = 0, mismatch = 0, frames = 0, spilled = 0;
    std::size_t undecodable = 0, waited = 0;
};

/// Replays `sc` on a Receiver and the reference model side by side and
/// requires identical outcomes, NACK bitmaps and drop counters.
void expect_matches_reference(const Scenario& sc, Tally& tally) {
    Receiver r{sc.n, sc.layer_sizes, sc.prereqs};
    ReferenceReceiver ref{sc.n, sc.layer_sizes, sc.prereqs};
    r.set_window_limit(sc.window_limit);
    ref.set_window_limit(sc.window_limit);
    espread::sim::SimTime now = 0;
    for (const Op& op : sc.ops) {
        now += 1000;
        switch (op.kind) {
            case Op::Kind::kPacket:
                if (op.packet.fragment >= 64) ++tally.spilled;
                r.on_packet(op.packet, now);
                ref.on_packet(op.packet, now);
                break;
            case Op::Kind::kTrailer:
                r.on_trailer(op.trailer);
                ref.on_trailer(op.trailer);
                break;
            case Op::Kind::kFinalize:
                expect_same_outcome(r.finalize(op.window), ref.finalize(op.window));
                break;
            case Op::Kind::kReport:
                expect_same_outcome(r.report(op.window), ref.report(op.window));
                ASSERT_EQ(r.incomplete_frames(op.window),
                          ref.incomplete_frames(op.window));
                break;
        }
    }
    for (std::size_t w = 0; w <= sc.windows; ++w) {
        ASSERT_EQ(r.incomplete_frames(w), ref.incomplete_frames(w));
        const WindowOutcome& out = r.finalize(w);
        expect_same_outcome(out, ref.finalize(w));
        tally.frames += out.frames_received;
        tally.undecodable += out.undecodable;
    }
    ASSERT_EQ(r.duplicates_dropped(), ref.duplicates);
    ASSERT_EQ(r.stale_dropped(), ref.stale);
    ASSERT_EQ(r.mismatch_dropped(), ref.mismatch);
    tally.dups += ref.duplicates;
    tally.stale += ref.stale;
    tally.mismatch += ref.mismatch;
    tally.waited += ref.waited;
}

// Random acyclic prerequisite lists, forward ones included, on random
// window shapes: decodability and playable times must match the
// fixed-point reference, not only on the Planner's GOP graphs.
TEST(ReceiverProperty, MatchesMapAndSetReferenceModel) {
    constexpr std::uint64_t kStreams = 3000;
    // Totals over all streams: each defense and the spill path must fire.
    Tally tally;
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expect_matches_reference(make_scenario(seed), tally);
        if (HasFailure()) return;
    }
    EXPECT_GT(tally.dups, 0u);
    EXPECT_GT(tally.stale, 0u);
    EXPECT_GT(tally.mismatch, 0u);
    EXPECT_GT(tally.frames, 0u);
    EXPECT_GT(tally.spilled, 0u);
}

// The prerequisite DAGs the Session actually runs: every catalog movie at
// W = 1..3 under the layered scheme, with the wire layers and positions of
// its plan.  Open GOPs give B frames forward anchors, so prerequisites
// sit after their dependents in playback order; undecodable frames and
// frames whose playable time waits on a later-completing anchor must both
// occur.
TEST(ReceiverProperty, MatchesReferenceOnPlannerDags) {
    using espread::proto::Planner;
    constexpr std::uint64_t kStreamsPerPlan = 40;
    for (const espread::media::MovieStats& movie : espread::media::movie_catalog()) {
        for (std::size_t gops = 1; gops <= 3; ++gops) {
            SCOPED_TRACE(movie.name + ", W = " + std::to_string(gops));
            espread::proto::SessionConfig cfg;
            cfg.stream.movie = movie.name;
            cfg.gops_per_window = gops;
            cfg.scheme = espread::proto::Scheme::kLayeredSpread;
            Planner planner(cfg);
            const espread::proto::WindowPlan& plan =
                planner.plan(std::max<std::size_t>(planner.noncritical_size() / 2, 1));
            Tally tally;
            for (std::uint64_t seed = 1; seed <= kStreamsPerPlan; ++seed) {
                SCOPED_TRACE("seed " + std::to_string(seed));
                Scenario sc;
                sc.n = planner.window_ldus();
                sc.layer_sizes = planner.layer_sizes();
                sc.prereqs = planner.prerequisites();
                std::vector<std::size_t> layer_of(sc.n), pos_of(sc.n);
                for (const espread::proto::WireEntry& e : plan.order) {
                    layer_of[e.local_frame] = e.layer;
                    pos_of[e.local_frame] = e.tx_pos;
                }
                espread::sim::Rng rng{seed};
                add_ops(sc, layer_of, pos_of, rng);
                expect_matches_reference(sc, tally);
                if (HasFailure()) return;
            }
            EXPECT_GT(tally.frames, 0u);
            EXPECT_GT(tally.undecodable, 0u);
            EXPECT_GT(tally.waited, 0u);
        }
    }
}

}  // namespace
