#include "protocol/receiver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace espread::proto {

Receiver::Receiver(std::size_t window_ldus, std::vector<std::size_t> layer_sizes,
                   std::vector<std::vector<std::size_t>> prereqs)
    : window_ldus_(window_ldus),
      layer_sizes_(std::move(layer_sizes)),
      prereqs_(std::move(prereqs)) {
    if (window_ldus_ == 0) {
        throw std::invalid_argument("Receiver: window must be positive");
    }
    if (prereqs_.size() != window_ldus_) {
        throw std::invalid_argument("Receiver: prereqs size != window");
    }
}

bool Receiver::FrameAssembly::insert(std::size_t fragment) {
    if (fragment < 64) {
        const std::uint64_t bit = std::uint64_t{1} << fragment;
        if (low & bit) return false;
        low |= bit;
    } else {
        const auto it = std::lower_bound(high.begin(), high.end(), fragment);
        if (it != high.end() && *it == fragment) return false;
        high.insert(it, fragment);
    }
    ++received;
    return true;
}

const Receiver::WindowState* Receiver::find(std::size_t window) const noexcept {
    const auto it = std::find_if(windows_.begin(), windows_.end(),
                                 [window](const WindowState& w) { return w.window == window; });
    return it == windows_.end() || finalized(window) ? nullptr : &*it;
}

Receiver::WindowState& Receiver::open(std::size_t window) {
    WindowState* slot = nullptr;
    for (WindowState& w : windows_) {
        if (w.window == window) return w;
        if (slot == nullptr && finalized(w.window)) slot = &w;
    }
    if (slot == nullptr) slot = &windows_.emplace_back();
    slot->window = window;
    slot->frames.clear();
    slot->layer_sent.clear();
    slot->trailer_seen = false;
    return *slot;
}

void Receiver::trace_drop(obs::EventType type, const DataPacket& p,
                          sim::SimTime now) {
    if (!trace_) return;
    obs::TraceEvent e;
    e.time = now;
    e.type = type;
    e.actor = obs::Actor::kClient;
    e.window = p.window;
    e.seq = p.seq;
    e.arg = static_cast<std::int64_t>(p.frame_index);
    trace_->record(e);
}

void Receiver::on_packet(const DataPacket& p, sim::SimTime now) {
    if (finalized(p.window)) {
        // The window already played out; a late/reordered/duplicated copy
        // must not resurrect per-window state (it would leak until session
        // end and corrupt a re-finalize).
        ++stale_dropped_;
        trace_drop(obs::EventType::kStaleDropped, p, now);
        return;
    }
    if (p.num_fragments == 0 || p.fragment >= p.num_fragments ||
        p.layer >= layer_sizes_.size() ||
        (window_limit_ != 0 && p.window >= window_limit_)) {
        // Only a corrupted-but-decodable header can claim an impossible
        // geometry; dropping it beats a FrameAssembly that can never (or
        // instantly) complete.
        ++mismatch_dropped_;
        return;
    }
    const std::size_t local = p.frame_index % window_ldus_;
    WindowState& w = open(p.window);
    if (w.frames.empty()) w.frames.resize(window_ldus_);
    FrameAssembly& fa = w.frames[local];
    if (fa.num_fragments == 0) {
        // First packet of the frame pins its geometry.
        fa.num_fragments = p.num_fragments;
        fa.layer = p.layer;
        fa.tx_pos = p.tx_pos;
    } else if (fa.num_fragments != p.num_fragments || fa.layer != p.layer ||
               fa.tx_pos != p.tx_pos) {
        // Conflicting header for an established frame: reject the intruder
        // instead of letting it clobber fragment accounting.
        ++mismatch_dropped_;
        return;
    }
    if (!fa.insert(p.fragment)) {
        // Retransmission/duplication overlap: each LDU fragment counts once.
        ++duplicates_dropped_;
        trace_drop(obs::EventType::kDupDropped, p, now);
        return;
    }
    if (fa.complete()) {
        fa.completed_at = now;
        if (trace_) {
            obs::TraceEvent e;
            e.time = now;
            e.type = obs::EventType::kFrameComplete;
            e.actor = obs::Actor::kClient;
            e.window = p.window;
            e.seq = p.seq;
            e.arg = static_cast<std::int64_t>(p.frame_index);
            trace_->record(e);
        }
    }
}

void Receiver::on_trailer(const WindowTrailer& t) {
    if (window_limit_ != 0 && t.window >= window_limit_) {
        ++mismatch_dropped_;
        return;
    }
    if (finalized(t.window)) {
        ++stale_dropped_;
        return;
    }
    WindowState& w = open(t.window);
    if (w.trailer_seen) {
        // First trailer wins; a duplicated (possibly corrupted) repeat must
        // not rewrite the sent counts.
        ++duplicates_dropped_;
        return;
    }
    w.layer_sent = t.layer_sent;
    w.trailer_seen = true;
}

WindowOutcome Receiver::finalize(std::size_t window) {
    WindowOutcome out = outcome_of(window);
    if (window >= finalized_.size()) finalized_.resize(window + 1);
    finalized_[window] = true;  // and so frees the window's slot
    return out;
}

WindowOutcome Receiver::report(std::size_t window) const {
    return outcome_of(window);
}

std::uint64_t Receiver::incomplete_frames(std::size_t window) const {
    if (finalized(window)) return 0;
    const std::size_t span =
        std::min<std::size_t>(window_ldus_, NackRequest::kMaxFrames);
    std::uint64_t missing = span == 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << span) - 1;
    const WindowState* w = find(window);
    if (w == nullptr) return missing;
    const std::vector<FrameAssembly>& frames = w->frames;
    for (std::size_t local = 0; local < std::min(span, frames.size()); ++local) {
        if (frames[local].complete()) missing &= ~(std::uint64_t{1} << local);
    }
    return missing;
}

WindowOutcome Receiver::outcome_of(std::size_t window) const {
    WindowOutcome out;
    out.playback.assign(window_ldus_, false);
    out.layer_max_burst.assign(layer_sizes_.size(), 0);
    out.layer_lost.assign(layer_sizes_.size(), 0);
    out.playable_at.assign(window_ldus_, std::nullopt);

    const WindowState* found = find(window);
    if (found == nullptr) {
        // Nothing arrived: every layer is one solid loss burst (up to its
        // size — without a trailer we cannot know how much was sent, so
        // report the full layer as the conservative estimate).
        for (std::size_t l = 0; l < layer_sizes_.size(); ++l) {
            out.layer_max_burst[l] = layer_sizes_[l];
            out.layer_lost[l] = layer_sizes_[l];
        }
        return out;
    }
    const WindowState& w = *found;
    out.trailer_seen = w.trailer_seen;

    // Frame completeness in playback order.  Unseen frames (and a window
    // only the trailer reached, whose frame table is empty) never count.
    for (std::size_t local = 0; local < w.frames.size(); ++local) {
        if (w.frames[local].complete()) {
            out.playback[local] = true;
            ++out.frames_received;
        }
    }

    // Decodability: a frame plays only if complete and all prerequisites
    // play.  Local prerequisite indices are always lower-layer frames; we
    // resolve with a fixed-point pass over playback order (prerequisites
    // can sit after a frame in playback order, e.g. a B frame's forward
    // anchor, so one pass in index order is not enough).
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < window_ldus_; ++f) {
            if (!out.playback[f]) continue;
            for (const std::size_t q : prereqs_[f]) {
                if (!out.playback[q]) {
                    out.playback[f] = false;
                    changed = true;
                    break;
                }
            }
        }
    }
    // Every frame still playing is complete; the rest of those are not.
    out.undecodable = out.frames_received -
        static_cast<std::size_t>(std::count(out.playback.begin(), out.playback.end(), true));

    // Playable instants: a frame can be decoded once it AND all its
    // prerequisites have fully arrived, so its playable time is the max of
    // the completion times along its dependency cone (fixed point, since
    // forward prerequisites exist).
    for (std::size_t local = 0; local < w.frames.size(); ++local) {
        if (out.playback[local]) out.playable_at[local] = w.frames[local].completed_at;
    }
    changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < window_ldus_; ++f) {
            if (!out.playable_at[f].has_value()) continue;
            for (const std::size_t q : prereqs_[f]) {
                // playback[f] implies playback[q], so q has a time.
                if (*out.playable_at[q] > *out.playable_at[f]) {
                    out.playable_at[f] = out.playable_at[q];
                    changed = true;
                }
            }
        }
    }

    // Per-layer wire-order loss runs.  Measurement span per layer: the
    // trailer's sent count when available, otherwise up to the highest
    // position received (losses beyond it are indistinguishable from
    // sender-side drops).
    std::vector<bool> got;
    for (std::size_t l = 0; l < layer_sizes_.size(); ++l) {
        got.assign(layer_sizes_[l], false);
        std::size_t span = 0;  // one past the highest position received
        for (const FrameAssembly& fa : w.frames) {
            if (fa.layer == l && fa.complete() && fa.tx_pos < got.size()) {
                got[fa.tx_pos] = true;
                span = std::max(span, fa.tx_pos + 1);
            }
        }
        if (w.trailer_seen && l < w.layer_sent.size()) {
            span = std::min(w.layer_sent[l], layer_sizes_[l]);
        }
        std::size_t run = 0;
        for (std::size_t pos = 0; pos < span; ++pos) {
            if (!got[pos]) {
                ++run;
                ++out.layer_lost[l];
                out.layer_max_burst[l] = std::max(out.layer_max_burst[l], run);
            } else {
                run = 0;
            }
        }
    }

    return out;
}

}  // namespace espread::proto
