#include "protocol/receiver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace espread::proto {

Receiver::Receiver(std::size_t window_ldus, std::vector<std::size_t> layer_sizes,
                   std::vector<std::vector<std::size_t>> prereqs)
    : window_ldus_(window_ldus),
      mod_magic_(window_ldus == 0 ? 0 : ~std::uint64_t{0} / window_ldus + 1),
      layer_sizes_(std::move(layer_sizes)),
      prereqs_(std::move(prereqs)) {
    if (window_ldus_ == 0) {
        throw std::invalid_argument("Receiver: window must be positive");
    }
    if (prereqs_.size() != window_ldus_) {
        throw std::invalid_argument("Receiver: prereqs size != window");
    }
    // Kahn's algorithm over the prerequisite edges q -> f, with the
    // dependents of q stored flat in dependents[first[q], first[q + 1]).
    const std::size_t n = window_ldus_;
    std::vector<std::size_t> waiting(n);
    std::vector<std::size_t> first(n + 1, 0);
    for (std::size_t f = 0; f < n; ++f) {
        waiting[f] = prereqs_[f].size();
        for (const std::size_t q : prereqs_[f]) {
            if (q >= n) {
                throw std::invalid_argument("Receiver: prerequisite out of range");
            }
            ++first[q + 1];
        }
    }
    for (std::size_t q = 0; q < n; ++q) first[q + 1] += first[q];
    std::vector<std::size_t> dependents(first[n]);
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t f = 0; f < n; ++f) {
        for (const std::size_t q : prereqs_[f]) dependents[next[q]++] = f;
    }
    order_.reserve(n);
    for (std::size_t f = 0; f < n; ++f) {
        if (waiting[f] == 0) order_.push_back(f);
    }
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const std::size_t q = order_[i];
        for (std::size_t e = first[q]; e < first[q + 1]; ++e) {
            if (--waiting[dependents[e]] == 0) order_.push_back(dependents[e]);
        }
    }
    if (order_.size() != n) {
        // Some frame waits on itself, directly or around a cycle.
        throw std::invalid_argument("Receiver: prerequisite cycle");
    }
    layer_offset_.reserve(layer_sizes_.size());
    std::size_t slots = 0;
    for (const std::size_t size : layer_sizes_) {
        layer_offset_.push_back(slots);
        slots += size;
    }
    got_.resize(slots);
    plays_.resize(window_ldus_);
    ready_at_.resize(window_ldus_);
}

std::size_t Receiver::local_of(std::size_t frame_index) const noexcept {
    constexpr std::uint64_t kMax32 = 0xFFFFFFFFu;
    if (frame_index > kMax32 || window_ldus_ > kMax32) {
        return frame_index % window_ldus_;
    }
    __extension__ using u128 = unsigned __int128;
    const std::uint64_t low = mod_magic_ * frame_index;
    return static_cast<std::size_t>((static_cast<u128>(low) * window_ldus_) >> 64);
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
    // Callers never open a finalized window, so at most one slot holds
    // `window`: most packets land in the window the last one did.
    if (last_slot_ < windows_.size() && windows_[last_slot_].window == window) {
        return windows_[last_slot_];
    }
    WindowState* slot = nullptr;
    for (WindowState& w : windows_) {
        if (w.window == window) {
            last_slot_ = static_cast<std::size_t>(&w - windows_.data());
            return w;
        }
        if (slot == nullptr && finalized(w.window)) slot = &w;
    }
    if (slot == nullptr) slot = &windows_.emplace_back();
    last_slot_ = static_cast<std::size_t>(slot - windows_.data());
    slot->window = window;
    for (FrameAssembly& fa : slot->frames) fa.reset();
    slot->layer_sent.clear();
    slot->trailer_seen = false;
    slot->complete = 0;
    slot->version = ++changes_;
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
    const std::size_t local = local_of(p.frame_index);
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
        if (local < 64) w.complete |= std::uint64_t{1} << local;
        w.version = ++changes_;
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
    w.version = ++changes_;
}

const WindowOutcome& Receiver::finalize(std::size_t window) {
    compute_outcome(window);
    if (window >= finalized_.size()) finalized_.resize(window + 1);
    finalized_[window] = true;  // and so frees the window's slot
    return out_;
}

const WindowOutcome& Receiver::report(std::size_t window) {
    compute_outcome(window);
    return out_;
}

std::uint64_t Receiver::incomplete_frames(std::size_t window) const {
    if (finalized(window)) return 0;
    const std::size_t span =
        std::min<std::size_t>(window_ldus_, NackRequest::kMaxFrames);
    std::uint64_t missing = span == 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << span) - 1;
    const WindowState* w = find(window);
    return w == nullptr ? missing : missing & ~w->complete;
}

void Receiver::compute_outcome(std::size_t window) {
    const WindowState* found = find(window);
    // Versions come from one counter, which never reaches an unseen
    // window's ~0, so a match means out_ was computed from this state.
    const std::uint64_t version = found == nullptr ? ~std::uint64_t{0} : found->version;
    if (out_version_ == version && out_window_ == window) return;
    out_window_ = window;
    out_version_ = version;
    WindowOutcome& out = out_;
    const std::size_t layers = layer_sizes_.size();
    out.playback.assign(window_ldus_, false);
    out.undecodable = 0;
    out.frames_received = 0;
    out.layer_max_burst.assign(layers, 0);
    out.layer_lost.assign(layers, 0);
    out.trailer_seen = false;
    out.playable_at.assign(window_ldus_, std::nullopt);

    if (found == nullptr) {
        // Nothing arrived: every layer is one solid loss burst (up to its
        // size — without a trailer we cannot know how much was sent, so
        // report the full layer as the conservative estimate).
        out.layer_max_burst = layer_sizes_;
        out.layer_lost = layer_sizes_;
        return;
    }
    const WindowState& w = *found;
    out.trailer_seen = w.trailer_seen;

    // One frame pass: completeness in playback order, and each complete
    // frame's wire position in its layer.  Unseen frames (and a window
    // only the trailer reached, whose frame table is empty) never count.
    std::fill(plays_.begin(), plays_.end(), 0);
    std::fill(got_.begin(), got_.end(), 0);
    for (std::size_t local = 0; local < w.frames.size(); ++local) {
        const FrameAssembly& fa = w.frames[local];
        if (!fa.complete()) continue;
        plays_[local] = 1;
        ready_at_[local] = fa.completed_at;
        ++out.frames_received;
        if (fa.tx_pos < layer_sizes_[fa.layer]) {
            got_[layer_offset_[fa.layer] + fa.tx_pos] = 1;
        }
    }

    // Decodability: a frame plays only if complete and all prerequisites
    // play, and it is playable once it AND its whole prerequisite cone
    // have arrived.  In prerequisite-first order one pass settles every
    // frame, since its prerequisites are final before it is reached.
    for (const std::size_t f : order_) {
        if (!plays_[f]) continue;
        for (const std::size_t q : prereqs_[f]) {
            if (!plays_[q]) {
                plays_[f] = 0;
                break;
            }
            ready_at_[f] = std::max(ready_at_[f], ready_at_[q]);
        }
    }
    std::size_t playing = 0;
    for (std::size_t f = 0; f < window_ldus_; ++f) {
        if (!plays_[f]) continue;
        out.playback[f] = true;
        out.playable_at[f] = ready_at_[f];
        ++playing;
    }
    // Every frame playing is complete; the rest of the complete ones are
    // not decodable.
    out.undecodable = out.frames_received - playing;

    // Per-layer wire-order loss runs.  Measurement span per layer: the
    // trailer's sent count when available, otherwise the whole layer, as
    // the paper's client, which knows a window holds n LDUs, measures it.
    // The trailer rides the data chain right after the last frame, so a
    // loss run at the window's tail usually takes the trailer with it;
    // stopping at the highest position received would drop that run.
    for (std::size_t l = 0; l < layers; ++l) {
        std::size_t span = layer_sizes_[l];
        if (w.trailer_seen && l < w.layer_sent.size()) {
            span = std::min(w.layer_sent[l], span);
        }
        const unsigned char* got = got_.data() + layer_offset_[l];
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
}

}  // namespace espread::proto
