// Per-layer replays for the session workloads.
//
// A traced session is timed as a whole (spans around Session::Session and
// Session::run).  To split its run time by layer without touching src/,
// each layer's public calls are replayed from the benchmark at the volumes
// that session recorded — its per-window bounds, its ChannelStats and its
// metrics registry — with geometry-consistent synthetic arguments, and
// timed.  A layer the session's configuration bypasses replays nothing and
// reads 0.
#pragma once

#include <cstddef>
#include <string_view>

#include "protocol/config.hpp"
#include "protocol/session.hpp"
#include "sim/contracts.hpp"

namespace perfbench {

/// A SessionResult::metrics counter name, checked at compile time against
/// the contract registry (sim/contracts.hpp): an unregistered name does
/// not build.
struct SessionMetric {
    consteval SessionMetric(const char* s) : name(s) {
        bool registered = false;
        for (const std::string_view n : espread::contracts::kSessionMetricNames) {
            registered = registered || n == name;
        }
        if (!registered) throw "metric name missing from contracts::kSessionMetricNames";
    }
    std::string_view name;
};

/// Value of a registered session counter (0 when the session did not
/// collect metrics or never touched it).
inline std::size_t counter(const espread::proto::SessionResult& r, SessionMetric m) {
    return static_cast<std::size_t>(r.metrics.counter(m.name));
}

/// Replayed seconds per layer for one session.
struct LayerTimes {
    double media = 0.0;     ///< TraceGenerator::generate_into
    double planner = 0.0;   ///< Planner::plan (builds on a cache miss)
    double core = 0.0;      ///< continuity, Eq. 1 update, permutation apply/unapply
    double receiver = 0.0;  ///< Receiver::on_packet / on_trailer / report / finalize
    double channel = 0.0;   ///< Channel send/send_sideband + EventQueue delivery
    double fault = 0.0;     ///< FaultChannel with the workload's impairments, minus inactive
    double codec = 0.0;     ///< encode / decode_* (wire_checksum inside both)
    double fec = 0.0;       ///< RlcEncoder::make_repair + RlcDecoder ingest
    double recovery = 0.0;  ///< RepairScheduler admit / enqueue / next_job
    double governor = 0.0;  ///< AdaptationGovernor window clock + ACK admission

    double total() const noexcept {
        return media + planner + core + receiver + channel + fault + codec + fec +
               recovery + governor;
    }
    void add(const LayerTimes& o) noexcept;
};

/// Replays every layer of one finished session (`result` of `cfg`).
LayerTimes replay_layers(const espread::proto::SessionConfig& cfg,
                         const espread::proto::SessionResult& result);

}  // namespace perfbench
