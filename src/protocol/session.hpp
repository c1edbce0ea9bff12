// End-to-end simulated streaming session (paper §4.2 protocol, §5
// experimental setup).
//
// One Session wires a frame source (synthetic MPEG/MJPEG/audio trace), the
// transmission planner, a lossy data channel, a lossy feedback channel and
// the client-side receiver over a single discrete-event clock, then runs
// `num_windows` buffer windows and reports per-window continuity.
//
// Timeline per buffer window k of duration T:
//   * at k*T the server transmits the window's frames in plan order,
//     fragmenting each frame into packets; frames whose serialization
//     cannot finish before the (k+1)*T deadline are dropped sender-side
//     (lowest-priority layers sit at the tail of the plan, so they die
//     first, as in CMT);
//   * critical (anchor) frames are retransmitted on loss — loss detection
//     costs one RTT, and the retransmission must still fit the deadline;
//   * a trailer records how much of each layer was actually sent;
//   * at (k+1)*T + propagation the client finalizes the window, measures
//     playback continuity and per-layer wire-order loss runs, and ACKs its
//     estimates (UDP: the ACK itself can be lost; stale ACKs are ignored);
//   * ACKs update the server's exponential-average burst estimate (Eq. 1),
//     which shapes the permutations of windows that START after arrival —
//     feedback for window k thus influences window k+2, as in Fig. 6.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "protocol/config.hpp"
#include "protocol/planner.hpp"
#include "protocol/receiver.hpp"
#include "protocol/wire.hpp"
#include "sim/stats.hpp"

namespace espread::proto {

/// Continuity and protocol accounting for one buffer window.
struct WindowReport {
    std::size_t window = 0;
    std::size_t clf = 0;              ///< playback CLF of this window
    std::size_t lost_ldus = 0;        ///< unit losses (incl. undecodable)
    double alf = 0.0;
    std::size_t undecodable = 0;      ///< arrived but prerequisites missing
    std::size_t sender_dropped = 0;   ///< frames never sent (deadline)
    std::size_t retransmissions = 0;  ///< packets resent for critical frames
    std::size_t actual_packet_burst = 0;  ///< max consecutive lost data packets
    std::size_t bound_used = 0;       ///< non-critical b fed to the planner
    /// Supervision state the window ran under (kNormal when no governor).
    GovernorState governor_state = GovernorState::kNormal;
};

/// Whole-session results.
struct SessionResult {
    std::vector<WindowReport> windows;
    espread::ContinuityReport total;        ///< over all playback slots
    net::ChannelStats data_channel;
    net::ChannelStats feedback_channel;
    std::size_t acks_sent = 0;
    std::size_t acks_applied = 0;   ///< in-order ACKs that updated the estimate

    /// Continuity judged by playout deadlines (PlayoutClock): a frame that
    /// arrives complete but after its slot is a unit loss here.  With the
    /// paper's one-window start-up delay this matches `total`; smaller
    /// start-up delays make it strictly worse.
    espread::ContinuityReport playout_total;
    /// Per-window CLF of the playout-judged stream.
    std::vector<std::size_t> playout_window_clf;
    /// Smallest start-up delay that would have made every delivered frame
    /// on time (measured over this run).
    sim::SimTime required_startup = 0;

    /// Named counters/histograms; empty unless SessionConfig::collect_metrics.
    obs::MetricsRegistry metrics;

    /// Adaptation-governor accounting (time in state, rejected ACKs,
    /// clamped observations, fallback/recovery counts).  All zeros when the
    /// governor is disabled.
    GovernorReport governor;

    /// Mean / deviation of per-window CLF (the paper's headline numbers).
    sim::RunningStats clf_stats() const;

    /// Mean / deviation of per-window playout CLF.
    sim::RunningStats playout_clf_stats() const;
};

/// Runs one configured streaming session.  Deterministic per config.
class Session {
public:
    /// Validates `cfg` (throws std::invalid_argument on bad settings).
    explicit Session(SessionConfig cfg);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Runs all windows and returns the report.  Call once.
    SessionResult run();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Convenience: configure, run, return.
SessionResult run_session(SessionConfig cfg);

}  // namespace espread::proto
