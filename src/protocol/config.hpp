// Session configuration for the error-spreading transmission protocol
// (paper §4.2, Figs. 5–6; experiment parameters from §5.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "media/gop.hpp"
#include "net/fault.hpp"
#include "net/fragment.hpp"
#include "net/gilbert.hpp"
#include "protocol/governor.hpp"

namespace espread::obs {
class TraceSink;
}

namespace espread::proto {

/// Which transmission ordering the sender uses.
enum class Scheme {
    kInOrder,           ///< MPEG coding order — the paper's "Un Scrambled" baseline
    kLayeredNoScramble, ///< layered (anchors first) but no within-layer permutation
    kLayeredIbo,        ///< layered; B layer in Inverse Binary Order (CMT baseline)
    kLayeredSpread,     ///< layered + per-layer k-CPO — the paper's scheme
    kRlc,               ///< in-order + sliding-window GF(256) RLC repairs
    kHybridSpreadRlc,   ///< spread *then* code: k-CPO order + RLC repairs
};

const char* scheme_name(Scheme s) noexcept;

/// When the sender decides to shed frames it cannot deliver on time.
enum class DropPolicy {
    /// Skip a frame at its send slot if serialization cannot finish before
    /// the playout deadline (what the deadline naturally enforces).
    kReactive,
    /// CMT-style: at window start, estimate the bit budget (bandwidth x
    /// window duration, minus a retransmission reserve) and pre-drop the
    /// lowest-priority tail that does not fit — "pktSrc can drop a set of
    /// low priority frames if it estimates that it can not deliver all of
    /// the frames in the buffer on time" (paper §4.4).
    kPredictive,
};

/// What kind of stream the session carries.
enum class StreamKind {
    kMpeg,      ///< GOP-structured video from the synthetic movie traces
    kMjpeg,     ///< dependency-free video frames
    kAudio,     ///< constant-bit-rate audio LDUs
    kTraceFile, ///< GOP-structured video loaded from a frame-trace file
};

/// Stream selection and sizing.
struct StreamSpec {
    StreamKind kind = StreamKind::kMpeg;
    std::string movie = "Jurassic Park";  ///< for kMpeg
    std::string trace_path;               ///< for kTraceFile (see media/trace_io.hpp)
    double mjpeg_mean_bits = 24000.0;     ///< for kMjpeg
    /// LDUs per buffer window for kMjpeg / kAudio (kMpeg/kTraceFile derive
    /// it from gops_per_window * GOP size).
    std::size_t ldus_per_window = 24;
    /// Playback rate for kMjpeg/kAudio/kTraceFile; kMpeg uses the movie's fps.
    double frame_rate = 24.0;
};

/// Sliding-window random-linear streaming code (src/fec, DESIGN.md §12),
/// active for Scheme::kRlc and Scheme::kHybridSpreadRlc.  The sender keeps
/// an elastic window of the last `window_packets` data packets and emits
/// `overhead_num` repair packets per `overhead_den` data packets (a
/// rational credit accumulator, so the schedule is exact and deterministic
/// — overhead ratio = num/den).  This is the session's one erasure code
/// (paper §4.3: error spreading composes with forward error correction at
/// the cost of repair bandwidth); the client decodes it from delivered
/// packets only.
struct RlcConfig {
    std::size_t window_packets = 64;  ///< elastic encoding window, in [1, 255]
    std::size_t overhead_num = 1;     ///< repairs per overhead_den data packets
    std::size_t overhead_den = 10;
};

/// Receiver-authoritative recovery plane (DESIGN.md §13).  When enabled,
/// the client detects gaps and rank deficits at playout-budget-aware
/// deadlines, requests repair over the (impairable) feedback path with
/// NackRequest records, and the sender's RepairScheduler answers with
/// retransmissions and targeted RLC repairs on the side band.  The RLC
/// credit schedule banks instead of spending proactively; a feedback
/// watchdog (and the adaptation governor's Degraded/Fallback states, when
/// governed) reverts to the fixed schedule, so a dead feedback path
/// degrades to the pure FEC/spreading behavior instead of spinning.
/// Disabled (the default), RLC repairs follow the fixed credit schedule
/// and the session sends no NACK traffic.
struct RecoveryConfig {
    bool enabled = false;

    /// NACK rounds per window after the initial request piggybacked on the
    /// ACK; the hard cap that bounds feedback traffic under blackout.
    static constexpr std::size_t kMaxRetries = 3;

    /// First-round retransmission timeout, as a multiple of the configured
    /// round-trip time (data + feedback propagation).
    static constexpr double kRttTimeoutMult = 1.5;

    /// Timeout multiplier per retry round (exponential backoff).
    static constexpr double kBackoffBase = 2.0;

    /// Uniform jitter applied to every timeout, as a +/- fraction of it,
    /// drawn from a dedicated RNG lane (kSessionLaneNackJitter) so enabling
    /// recovery never shifts the loss, media, or impairment processes.
    static constexpr double kJitterFrac = 0.25;

    /// Bound on the sender's queued repair jobs while servicing is
    /// suspended; overload evicts the job with the earliest deadline (it
    /// is the least salvageable).
    static constexpr std::size_t kQueueLimit = 16;

    /// Most RLC repair packets one NACK may trigger while Normal;
    /// Recovering slew-limits servicing to one queued job per window.
    static constexpr std::size_t kMaxRepairsPerNack = 8;

    // The feedback watchdog (control::kWatchdogWindows) and the credit
    // cap (control::kCreditCap) are the engine's NACK-lite constants too.
};

/// Everything that defines one simulated streaming session.
struct SessionConfig {
    StreamSpec stream;
    std::size_t gops_per_window = 2;  ///< the paper's W

    Scheme scheme = Scheme::kLayeredSpread;
    bool retransmit_critical = true;  ///< NACK-driven resend of anchor frames
    /// Resend attempts per critical frame.  The paper retransmits "upon a
    /// loss" bounded only by the playout deadline; 6 rounds of a 23 ms RTT
    /// is far below the 1 s window, so the deadline remains the binding
    /// limit as in the paper.
    static constexpr std::size_t kMaxRetransmits = 6;
    std::size_t pinned_bound = 0;     ///< >0 freezes the non-critical bound
    double alpha = 0.5;               ///< Eq. 1 averaging weight
    /// Adaptation governor supervising the EWMA estimator (see
    /// protocol/governor.hpp): watchdog over missed feedback deadlines,
    /// window-sequenced ACK admission, outlier guard + hysteresis on
    /// estimator updates, fallback to the no-feedback prior b = n/2 under
    /// sustained outage and a staged recovery afterwards.  Disabled by
    /// default; a disabled governor keeps the session byte-identical to an
    /// ungoverned one.  Requires pinned_bound == 0 when enabled.
    GovernorConfig governor;
    DropPolicy drop_policy = DropPolicy::kReactive;
    /// Fraction of the window's bit budget kPredictive keeps back for
    /// retransmissions.
    static constexpr double kPredictiveReserve = 0.1;
    RlcConfig rlc;
    RecoveryConfig recovery;

    /// True when `scheme` carries the sliding-window code.
    bool rlc_active() const noexcept {
        return scheme == Scheme::kRlc || scheme == Scheme::kHybridSpreadRlc;
    }

    net::LinkConfig data_link{1.2e6, sim::from_millis(11.5)};
    net::LinkConfig feedback_link{1.2e6, sim::from_millis(11.5)};
    net::GilbertParams data_loss{0.92, 0.6};
    net::GilbertParams feedback_loss{0.92, 0.6};
    std::size_t packet_bits = net::kDefaultPacketBits;  ///< 16384 (2 KB)
    std::size_t feedback_bits = 512;

    /// Fault-injection plans for each direction (net/fault.hpp): packet
    /// reordering, duplication, header corruption (surfaced through the
    /// wire codec's checksum), delay jitter and scripted blackouts.
    /// Default-constructed = inactive = byte-identical behavior to a
    /// session without the fault layer.  Impairment randomness draws from
    /// dedicated RNG lanes (contracts::kSessionLaneDataImpairment and
    /// kSessionLaneFeedbackImpairment), so turning faults on does not shift
    /// the Gilbert loss or media processes.
    net::ImpairmentConfig data_impairment;
    net::ImpairmentConfig feedback_impairment;

    /// Appends a blackout to `feedback_impairment` covering the ACK
    /// departures of windows [first, last] (inclusive): the window-w ACK
    /// leaves the client shortly after (w+1) window durations.  This is the
    /// "kill the ACK path for windows 3–5" fault plan.
    void blackout_feedback_windows(std::size_t first, std::size_t last);

    std::size_t num_windows = 100;  ///< paper plots 100 buffer windows
    std::uint64_t seed = 1;

    /// Trace sink for the structured event timeline (src/obs); non-owning,
    /// nullptr disables tracing at the cost of one branch per event site.
    /// A sink is used by exactly one running session: when fanning this
    /// config out over the Monte-Carlo runner, only trial 0 keeps it (the
    /// other trials run untraced), so the sink is never shared across
    /// worker threads.
    obs::TraceSink* trace = nullptr;

    /// Collect named counters and histograms into SessionResult::metrics
    /// (loss-run lengths, retransmit latency, per-window bound/CLF, ...).
    bool collect_metrics = false;

    /// Client start-up delay, in buffer-window durations (paper: fill the
    /// client buffer first, i.e. 1.0).  Values below 1.0 shave latency at
    /// the cost of late frames counting as unit losses in the playout
    /// metrics; must be positive.
    double playout_startup_windows = 1.0;

    /// LDUs per buffer window for the configured stream kind.  For
    /// kTraceFile both this and window_duration() read the trace file.
    std::size_t window_ldus() const;

    /// Playback duration of one buffer window, in simulated time.
    sim::SimTime window_duration() const;

    /// Display rate of the configured stream.
    double frame_rate() const;

    /// Validates invariants; throws std::invalid_argument with a message on
    /// the first violation.  With the recovery plane enabled, a window may
    /// hold at most NackRequest::kMaxFrames LDUs (the NACK bitmap width).
    void validate() const;
};

}  // namespace espread::proto
