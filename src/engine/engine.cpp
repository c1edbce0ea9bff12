#include "engine/engine.hpp"

#include <string>

#include "exp/json.hpp"
#include "obs/histogram.hpp"

namespace espread::engine {

EngineConfig ShardedEngine::normalize(EngineConfig cfg) {
    cfg.validate();
    if (cfg.shards == 0) cfg.shards = exp::ThreadPool::hardware_threads();
    if (cfg.shards > cfg.sessions) cfg.shards = cfg.sessions;
    return cfg;
}

ShardedEngine::ShardedEngine(const EngineConfig& cfg)
    : cfg_(normalize(cfg)), pool_(cfg_), scratch_(cfg_.shards) {
    const std::size_t shards = cfg_.shards;
    const std::size_t cap = pool_.capacity();
    const std::size_t base = cap / shards;
    const std::size_t rem = cap % shards;
    std::size_t begin = 0;
    ranges_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t len = base + (s < rem ? 1 : 0);
        ranges_.emplace_back(begin, begin + len);
        begin += len;
    }
    for (ShardScratch& s : scratch_) pool_.init_scratch(s);
    if (cfg_.telemetry.enabled) {
        slabs_.resize(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            scratch_[s].telemetry = &slabs_[s];
        }
        registry_ = std::make_unique<obs::telemetry::SnapshotRegistry>(
            cfg_.telemetry.epoch_steps);
    }
    if (shards > 1) workers_ = std::make_unique<exp::ThreadPool>(shards);
}

void ShardedEngine::step() {
    if (!workers_) {
        pool_.run_window_range(ranges_[0].first, ranges_[0].second, scratch_[0]);
    } else {
        for (std::size_t s = 0; s < scratch_.size(); ++s) {
            workers_->submit([this, s] {
                pool_.run_window_range(ranges_[s].first, ranges_[s].second,
                                       scratch_[s]);
            });
        }
        workers_->wait_idle();
    }
    ++steps_;
    // Epoch boundary: every shard is idle here, so the fold reads the
    // slabs race-free and in shard index order.
    if (registry_ && registry_->due(steps_)) {
        registry_->capture(steps_, slabs_.data(), slabs_.size());
    }
}

void ShardedEngine::run(std::size_t windows) {
    for (std::size_t w = 0; w < windows; ++w) step();
}

void append_summary(exp::JsonWriter& json, const EngineSummary& s) {
    json.begin_object();
    json.key("sessions").value(static_cast<std::uint64_t>(s.sessions));
    json.key("active_sessions").value(static_cast<std::uint64_t>(s.active_sessions));
    json.key("windows").value(s.windows);
    json.key("slots").value(s.slots);
    json.key("unit_losses").value(s.unit_losses);
    json.key("idle_windows").value(s.idle_windows);
    json.key("alf").value(s.alf);
    json.key("clf_mean").value(s.clf_mean);
    json.key("clf_dev").value(s.clf_dev);
    json.key("clf_max").value(s.clf_max);
    json.key("clf_p50").value(s.clf_histogram.quantile(0.50));
    json.key("clf_p90").value(s.clf_histogram.quantile(0.90));
    json.key("clf_p99").value(s.clf_histogram.quantile(0.99));
    json.key("clf_p999").value(s.clf_histogram.quantile(0.999));
    json.key("acks_delivered").value(s.acks_delivered);
    json.key("acks_lost").value(s.acks_lost);
    json.key("sessions_spawned").value(s.sessions_spawned);
    json.key("sessions_completed").value(s.sessions_completed);
    json.key("governor_windows").begin_array();
    for (std::size_t st = 0; st < 4; ++st) json.value(s.governor_windows[st]);
    json.end_array();
    json.key("governor_transitions").value(s.governor_transitions);
    if (s.fec) {
        json.key("fec_repair_packets").value(s.fec_repair_packets);
        json.key("fec_windows_recovered").value(s.fec_windows_recovered);
        json.key("fec_windows_unrecovered").value(s.fec_windows_unrecovered);
    }
    if (s.nack) {
        json.key("nack_requests_sent").value(s.nack_requests_sent);
        json.key("nack_requests_lost").value(s.nack_requests_lost);
        json.key("nack_repair_packets").value(s.nack_repair_packets);
        json.key("nack_credits_expired").value(s.nack_credits_expired);
        json.key("nack_windows_proactive").value(s.nack_windows_proactive);
    }
    json.key("clf_histogram");
    obs::append_histogram(json, s.clf_histogram);
    json.key("bound_histogram");
    obs::append_histogram(json, s.bound_histogram);
    json.end_object();
}

std::string summary_json(const EngineSummary& s) {
    exp::JsonWriter json;
    append_summary(json, s);
    return json.str();
}

}  // namespace espread::engine
