#include "protocol/config.hpp"

#include <stdexcept>

#include "media/trace.hpp"
#include "media/trace_io.hpp"
#include "protocol/wire.hpp"

namespace espread::proto {

const char* scheme_name(Scheme s) noexcept {
    switch (s) {
        case Scheme::kInOrder: return "in-order";
        case Scheme::kLayeredNoScramble: return "layered";
        case Scheme::kLayeredIbo: return "layered+IBO";
        case Scheme::kLayeredSpread: return "layered+CPO";
        case Scheme::kRlc: return "rlc";
        case Scheme::kHybridSpreadRlc: return "spread+rlc";
    }
    return "?";
}

std::size_t SessionConfig::window_ldus() const {
    if (stream.kind == StreamKind::kMpeg) {
        return gops_per_window * media::movie_stats(stream.movie).gop_size;
    }
    if (stream.kind == StreamKind::kTraceFile) {
        const auto frames = media::read_trace_file(stream.trace_path);
        return gops_per_window * media::infer_gop_pattern(frames).size();
    }
    return stream.ldus_per_window;
}

double SessionConfig::frame_rate() const {
    if (stream.kind == StreamKind::kMpeg) {
        return media::movie_stats(stream.movie).fps;
    }
    return stream.frame_rate;
}

sim::SimTime SessionConfig::window_duration() const {
    return sim::from_seconds(static_cast<double>(window_ldus()) / frame_rate());
}

void SessionConfig::blackout_feedback_windows(std::size_t first,
                                              std::size_t last) {
    const sim::SimTime T = window_duration();
    // Window w's ACK departs just after its playout deadline at (w+1)T;
    // cover up to the next deadline so propagation slack cannot leak it.
    feedback_impairment.blackouts.push_back(
        {static_cast<sim::SimTime>(first + 1) * T,
         static_cast<sim::SimTime>(last + 2) * T});
}

void SessionConfig::validate() const {
    if (stream.kind == StreamKind::kMpeg || stream.kind == StreamKind::kTraceFile) {
        if (stream.kind == StreamKind::kMpeg) {
            media::movie_stats(stream.movie);  // throws for unknown movies
        } else if (stream.trace_path.empty()) {
            throw std::invalid_argument("SessionConfig: trace_path required");
        }
        if (gops_per_window == 0) {
            throw std::invalid_argument("SessionConfig: gops_per_window must be >= 1");
        }
    } else if (stream.ldus_per_window == 0) {
        throw std::invalid_argument("SessionConfig: ldus_per_window must be >= 1");
    }
    if (frame_rate() <= 0.0) {
        throw std::invalid_argument("SessionConfig: frame rate must be positive");
    }
    if (packet_bits == 0) {
        throw std::invalid_argument("SessionConfig: packet_bits must be positive");
    }
    if (alpha < 0.0 || alpha > 1.0) {
        throw std::invalid_argument("SessionConfig: alpha must be in [0, 1]");
    }
    if (num_windows == 0) {
        throw std::invalid_argument("SessionConfig: num_windows must be >= 1");
    }
    if (rlc_active()) {
        if (rlc.window_packets == 0 || rlc.window_packets > 255) {
            throw std::invalid_argument(
                "SessionConfig: rlc.window_packets must be in [1, 255]");
        }
        if (rlc.overhead_num == 0 || rlc.overhead_den == 0) {
            throw std::invalid_argument(
                "SessionConfig: RLC schemes need a positive overhead ratio");
        }
    }
    if (data_link.bandwidth_bps <= 0.0 || feedback_link.bandwidth_bps <= 0.0) {
        throw std::invalid_argument("SessionConfig: bandwidth must be positive");
    }
    if (playout_startup_windows <= 0.0) {
        throw std::invalid_argument(
            "SessionConfig: playout_startup_windows must be positive");
    }
    if (governor.enabled) {
        governor.validate();
        if (pinned_bound != 0) {
            throw std::invalid_argument(
                "SessionConfig: governor is incompatible with pinned_bound");
        }
    }
    if (recovery.enabled && window_ldus() > NackRequest::kMaxFrames) {
        // Frames past the NACK bitmap could never be named, so they would
        // silently go without repair.
        throw std::invalid_argument(
            "SessionConfig: the recovery plane serves at most 64 LDUs per "
            "window");
    }
    data_impairment.validate();
    feedback_impairment.validate();
}

}  // namespace espread::proto
