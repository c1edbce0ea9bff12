// Router-queue loss models: drop-tail and RED (paper §1).
//
// The paper motivates error spreading with the observation that bursty
// loss "has been shown to arise from the drop-tail queuing discipline
// adopted in many Internet routers", and that RED gateways would reduce it
// but drop-tail remains deployed.  This module reproduces that claim from
// first principles: a slotted bottleneck queue shared with on/off
// cross-traffic, drained at a fixed service rate, dropping either at the
// tail (queue full) or probabilistically by RED's EWMA of the queue
// length.  bench_gateways measures the loss-burst structure each
// discipline produces and how much error spreading helps under each.
#pragma once

#include <cstddef>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace espread::net {

/// Discipline of the bottleneck queue.
enum class QueueDiscipline {
    kDropTail,  ///< drop arrivals when the buffer is full
    kRed,       ///< Random Early Detection: probabilistic early drops
};

/// Bottleneck gateway parameters.  Time is slotted: one slot per probe
/// (foreground) packet; cross-traffic packets share the queue.
struct GatewayConfig {
    QueueDiscipline discipline = QueueDiscipline::kDropTail;
    std::size_t capacity = 20;        ///< buffer size in packets
    double service_per_slot = 3.0;    ///< packets drained per slot
    /// On/off (Markov-modulated) cross-traffic: in the ON state a burst of
    /// `cross_burst_rate` packets arrives per slot; OFF sends nothing.
    double p_stay_on = 0.9;
    double p_stay_off = 0.95;
    double cross_burst_rate = 6.0;
    // RED parameters (fractions of capacity / probability).
    double red_min_threshold = 0.25;  ///< min_th as a fraction of capacity
    double red_max_threshold = 0.75;  ///< max_th as a fraction of capacity
    double red_max_drop = 0.2;        ///< max_p at max_th
    double red_weight = 0.1;          ///< EWMA weight of the queue average
};

/// Slotted simulation of one bottleneck queue.
class Gateway {
public:
    /// Throws std::invalid_argument on non-positive service rate, zero
    /// capacity, probabilities outside [0, 1], or RED thresholds out of
    /// order.
    Gateway(GatewayConfig config, sim::Rng rng);

    /// Advances one slot: cross-traffic arrives, the foreground (probe)
    /// packet arrives, the queue drains.  Returns true if the FOREGROUND
    /// packet was dropped.
    bool offer_packet();

    /// Attaches a trace sink (non-owning; nullptr detaches).  Each probe
    /// packet then emits PacketSent/PacketLost on the gateway track; the
    /// event time is the slot index (the gateway simulation is slotted,
    /// not clocked).
    void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

    std::size_t offered() const noexcept { return offered_; }
    std::size_t dropped() const noexcept { return dropped_; }

    /// Lengths of maximal runs of consecutive dropped probe packets; a run
    /// still open at call time counts as complete, so the histogram's
    /// sum() always equals `dropped()`.  The burst-length distribution —
    /// not just the max — is what separates drop-tail from RED.
    obs::Histogram loss_runs() const;

    /// Current instantaneous queue length (packets).
    double queue_length() const noexcept { return queue_; }

    /// RED's running average of the queue length.
    double average_queue() const noexcept { return avg_queue_; }

    std::size_t cross_offered() const noexcept { return cross_offered_; }
    std::size_t cross_dropped() const noexcept { return cross_dropped_; }

    const GatewayConfig& config() const noexcept { return config_; }

private:
    bool admit(bool foreground);

    GatewayConfig config_;
    sim::Rng rng_;
    double queue_ = 0.0;       // packets queued (fractional service allowed)
    double avg_queue_ = 0.0;   // RED EWMA
    bool cross_on_ = false;
    std::size_t cross_offered_ = 0;
    std::size_t cross_dropped_ = 0;
    std::size_t offered_ = 0;
    std::size_t dropped_ = 0;
    std::size_t loss_run_ = 0;
    obs::Histogram loss_runs_;
    obs::TraceSink* trace_ = nullptr;
};

}  // namespace espread::net
