#include "net/gateway.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace espread::net {

Gateway::Gateway(GatewayConfig config, sim::Rng rng)
    : config_(config), rng_(std::move(rng)) {
    const auto prob = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (config_.capacity == 0) {
        throw std::invalid_argument("Gateway: capacity must be positive");
    }
    if (config_.service_per_slot <= 0.0) {
        throw std::invalid_argument("Gateway: service rate must be positive");
    }
    if (config_.cross_burst_rate < 0.0) {
        throw std::invalid_argument("Gateway: negative cross-traffic rate");
    }
    if (!prob(config_.p_stay_on) || !prob(config_.p_stay_off) ||
        !prob(config_.red_max_drop) || !prob(config_.red_weight)) {
        throw std::invalid_argument("Gateway: probabilities must be in [0, 1]");
    }
    if (config_.red_min_threshold < 0.0 ||
        config_.red_max_threshold > 1.0 ||
        config_.red_min_threshold >= config_.red_max_threshold) {
        throw std::invalid_argument("Gateway: RED thresholds out of order");
    }
}

bool Gateway::admit(bool foreground) {
    const double cap = static_cast<double>(config_.capacity);
    if (config_.discipline == QueueDiscipline::kDropTail) {
        if (queue_ + 1.0 > cap) {
            if (!foreground) ++cross_dropped_;
            return false;
        }
        queue_ += 1.0;
        return true;
    }
    // RED: update the average, drop early with probability ramping from 0
    // at min_th to max_p at max_th; always drop above max_th or when full.
    avg_queue_ = (1.0 - config_.red_weight) * avg_queue_ +
                 config_.red_weight * queue_;
    const double min_th = config_.red_min_threshold * cap;
    const double max_th = config_.red_max_threshold * cap;
    bool drop = false;
    if (queue_ + 1.0 > cap || avg_queue_ >= max_th) {
        drop = true;
    } else if (avg_queue_ > min_th) {
        const double p =
            config_.red_max_drop * (avg_queue_ - min_th) / (max_th - min_th);
        drop = rng_.bernoulli(p);
    }
    if (drop) {
        if (!foreground) ++cross_dropped_;
        return false;
    }
    queue_ += 1.0;
    return true;
}

bool Gateway::offer_packet() {
    // Cross-traffic state and arrivals for this slot.
    const double stay = cross_on_ ? config_.p_stay_on : config_.p_stay_off;
    if (!rng_.bernoulli(stay)) cross_on_ = !cross_on_;
    if (cross_on_) {
        const double rate = config_.cross_burst_rate;
        std::size_t arrivals = static_cast<std::size_t>(rate);
        if (rng_.bernoulli(rate - std::floor(rate))) ++arrivals;
        for (std::size_t i = 0; i < arrivals; ++i) {
            ++cross_offered_;
            admit(false);
        }
    }
    // The foreground probe packet.
    const bool admitted = admit(true);
    const std::size_t slot = offered_++;
    if (admitted) {
        if (loss_run_ > 0) {
            loss_runs_.record(loss_run_);
            loss_run_ = 0;
        }
    } else {
        ++dropped_;
        ++loss_run_;
    }
    if (trace_) {
        obs::TraceEvent e;
        e.time = static_cast<sim::SimTime>(slot);
        e.type = admitted ? obs::EventType::kPacketSent
                          : obs::EventType::kPacketLost;
        e.actor = obs::Actor::kGateway;
        e.seq = slot;
        trace_->record(e);
    }
    // Drain the queue.
    queue_ = std::max(0.0, queue_ - config_.service_per_slot);
    return !admitted;
}

obs::Histogram Gateway::loss_runs() const {
    obs::Histogram h = loss_runs_;
    if (loss_run_ > 0) h.record(loss_run_);
    return h;
}

}  // namespace espread::net
