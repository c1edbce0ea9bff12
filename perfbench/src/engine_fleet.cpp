// engine_fleet: the population path.  One ShardedEngine with 100k session
// slots on two shards runs the Fig. 8 loop (n = 24, f = 2, Gilbert(0.92,
// 0.6) on both paths, alpha = 1/2, ACK lag 2) with seeded churn,
// governor-lite, FEC-lite 1/10 with NACK-lite and telemetry every 16 steps.
// Steps run back to back after untimed warm-up steps (a closed loop: the
// next step starts when the previous one returns).
//
// The traced run replays ShardedEngine::step from public calls — its own
// SessionPool, ShardScratch and TelemetrySlab per shard, the same slot
// ranges, run_window_range per shard on an exp::ThreadPool and
// SnapshotRegistry::capture on epoch steps — timing each layer, and checks
// that the replay's summary_json equals the engine's.
#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "exp/thread_pool.hpp"
#include "obs/telemetry/snapshot.hpp"

namespace perfbench {

namespace {

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::SessionPool;
using espread::engine::ShardedEngine;
using espread::engine::ShardScratch;

constexpr std::size_t kWarmupSteps = 8;
/// Set-up repetitions; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;
/// Timed steps after which the output fingerprint is taken (a fixed step
/// count, so the fingerprint does not depend on how fast the box is).
constexpr std::size_t kFingerprintStep = 32;
/// The output checks run every this many timed steps; a failed check
/// fails every step since the last passed one.
constexpr std::size_t kCheckEvery = 16;

EngineConfig fleet_config(std::uint64_t seed) {
    EngineConfig cfg;  // Fig. 8 window, channel and feedback defaults
    cfg.sessions = 100000;
    cfg.shards = kWorkers;
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 16;
    cfg.churn.mean_lifetime_windows = 64.0;
    cfg.churn.mean_arrival_gap_windows = 2.0;
    cfg.governor.enabled = true;
    cfg.fec.enabled = true;
    cfg.fec.overhead_num = 1;
    cfg.fec.overhead_den = 10;
    cfg.fec.nack = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_steps = 16;
    cfg.seed = seed;
    return cfg;
}

/// The engine_fleet output invariants over a cumulative summary.
bool summary_ok(const EngineSummary& s, std::size_t n) {
    const std::uint64_t governed = s.governor_windows[0] + s.governor_windows[1] +
                                   s.governor_windows[2] + s.governor_windows[3];
    return s.slots == s.windows * n && s.clf_histogram.total() == s.windows &&
           s.sessions_spawned - s.sessions_completed == s.active_sessions &&
           governed == s.windows;
}

double ms(Clock::time_point a, Clock::time_point b) {
    return seconds_between(a, b) * 1e3;
}

/// What the untraced timed phase measured.
struct TimedSteps {
    std::vector<double> step_ms;
    std::uint64_t windows = 0;
    std::uint64_t failed = 0;
    std::uint64_t fingerprint = 0;
    std::string final_json;
};

/// Untraced timed phase: closed-loop steps until their time adds up to
/// `seconds` (and the fingerprint step is reached), with the periodic
/// output checks outside the step timing.  `hook(true)` runs before and
/// `hook(false)` after every step, also untimed.
template <typename Hook>
TimedSteps timed_steps(ShardedEngine& engine, double seconds, Hook hook) {
    TimedSteps t;
    const std::size_t n = engine.config().window_ldus;
    const std::uint64_t windows_before = engine.summary().windows;
    std::size_t unchecked = 0;
    double timed_s = 0.0;
    while (timed_s < seconds || t.step_ms.size() < kFingerprintStep) {
        hook(true);
        const Clock::time_point s0 = Clock::now();
        engine.step();
        const Clock::time_point s1 = Clock::now();
        t.step_ms.push_back(ms(s0, s1));
        timed_s += seconds_between(s0, s1);
        hook(false);
        ++unchecked;
        const std::size_t done = t.step_ms.size();
        if (done % kCheckEvery == 0 || done == kFingerprintStep) {
            const EngineSummary s = engine.summary();
            if (!summary_ok(s, n)) t.failed += unchecked;
            unchecked = 0;
            if (done == kFingerprintStep) {
                t.fingerprint = fnv1a(espread::engine::summary_json(s));
            }
        }
    }
    const EngineSummary s = engine.summary();
    if (unchecked > 0 && !summary_ok(s, n)) t.failed += unchecked;
    t.windows = s.windows - windows_before;
    t.final_json = espread::engine::summary_json(s);
    return t;
}

/// Runs each construction job on a thread of its own and keeps that thread
/// parked until this object is destroyed.  glibc gives every new thread a
/// malloc arena nobody else has used while the old ones are still held,
/// so two objects built by the same sequence of allocations get the same
/// heap layout.  That matters here: built one after the other on one
/// thread, two identical engines in one process differed by up to 18% in
/// step time on two cores and not at all on one, a cross-core effect of
/// where the shards' small heap blocks (the scratch buffers) fall.
class FreshArenas {
public:
    FreshArenas() = default;
    FreshArenas(const FreshArenas&) = delete;
    FreshArenas& operator=(const FreshArenas&) = delete;

    ~FreshArenas() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        cv_.notify_all();
        for (std::thread& t : threads_) t.join();
    }

    /// Runs `job` on a new thread and returns when it has finished.
    template <typename Job>
    void run(Job job) {
        bool done = false;
        std::exception_ptr error;
        threads_.emplace_back([this, &done, &error, job]() mutable {
            try {
                job();
            } catch (...) {
                error = std::current_exception();
            }
            std::unique_lock<std::mutex> lock(mutex_);
            done = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
        });
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&done] { return done; });
        if (error) std::rethrow_exception(error);
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool released_ = false;
    std::vector<std::thread> threads_;
};

// The engine object's block comes from plain operator new, as the
// replay's stand-in for it does.
static_assert(alignof(ShardedEngine) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

/// ShardedEngine::step replayed from public calls, timing each layer.
///
/// Built on a fresh arena, the constructor makes the heap allocations
/// ShardedEngine's makes, in the same order and sizes, so the replay's
/// blocks sit at the engine's offsets.  Only the timing buffers come last.
class ReplayEngine {
public:
    explicit ReplayEngine(const EngineConfig& cfg)
        : engine_shadow_(new std::byte[sizeof(ShardedEngine)]), pool_(build(cfg)),
          scratch_(cfg.shards) {
        const std::size_t shards = cfg.shards;
        const std::size_t base = pool_.capacity() / shards;
        const std::size_t rem = pool_.capacity() % shards;
        std::size_t begin = 0;
        ranges_.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            const std::size_t len = base + (s < rem ? 1 : 0);
            ranges_.emplace_back(begin, begin + len);
            begin += len;
        }
        for (ShardScratch& s : scratch_) pool_.init_scratch(s);
        slabs_.resize(shards);
        for (std::size_t s = 0; s < shards; ++s) scratch_[s].telemetry = &slabs_[s];
        registry_ = std::make_unique<espread::obs::telemetry::SnapshotRegistry>(
            cfg.telemetry.epoch_steps);
        workers_ = std::make_unique<espread::exp::ThreadPool>(shards);
        t_begin_.resize(shards);
        t_end_.resize(shards);
    }

    /// One step: run_window_range per shard on the worker pool, then the
    /// epoch capture when due.  Only timed steps enter the ledger.
    void step(bool timed) {
        const std::size_t shards = scratch_.size();
        const Clock::time_point w0 = Clock::now();
        for (std::size_t s = 0; s < shards; ++s) {
            workers_->submit([this, s] {
                t_begin_[s] = Clock::now();
                pool_.run_window_range(ranges_[s].first, ranges_[s].second, scratch_[s]);
                t_end_[s] = Clock::now();
            });
        }
        workers_->wait_idle();
        const Clock::time_point w1 = Clock::now();
        ++steps_;
        double capture = 0.0;
        if (registry_->due(steps_)) {
            registry_->capture(steps_, slabs_.data(), slabs_.size());
            capture = ms(w1, Clock::now());
            if (timed) capture_ms.push_back(capture);
        }
        if (timed) step_ms.push_back(ms(w0, w1) + capture);
        if (!timed) return;
        double total = 0.0, slowest = 0.0;
        for (std::size_t s = 0; s < shards; ++s) {
            const double busy = ms(t_begin_[s], t_end_[s]);
            total += busy;
            slowest = std::max(slowest, busy);
        }
        busy_ns_total += total * 1e6;
        shard_mean_ms.push_back(total / static_cast<double>(shards));
        shard_max_ms.push_back(slowest);
        dispatch_ms.push_back(ms(w0, w1) - slowest);
    }

    EngineSummary summary() const { return pool_.summarize(scratch_); }
    std::string series_json() const {
        return espread::obs::telemetry::snapshot_series_json(*registry_);
    }

    double pool_build_s = 0.0;
    std::vector<double> shard_mean_ms;  // mean shard busy time per step
    std::vector<double> shard_max_ms;   // slowest shard per step
    std::vector<double> dispatch_ms;    // step wall minus slowest shard
    std::vector<double> capture_ms;     // one per timed epoch step
    std::vector<double> step_ms;        // whole replayed step, capture included
    double busy_ns_total = 0.0;

private:
    SessionPool build(const EngineConfig& cfg) {
        const Clock::time_point t0 = Clock::now();
        SessionPool pool(cfg);
        pool_build_s = seconds_since(t0);
        return pool;
    }

    std::unique_ptr<std::byte[]> engine_shadow_;  // the engine object's block
    SessionPool pool_;
    std::vector<ShardScratch> scratch_;
    std::vector<std::pair<std::size_t, std::size_t>> ranges_;
    std::vector<espread::obs::telemetry::TelemetrySlab> slabs_;
    std::unique_ptr<espread::obs::telemetry::SnapshotRegistry> registry_;
    std::unique_ptr<espread::exp::ThreadPool> workers_;
    std::vector<Clock::time_point> t_begin_, t_end_;
    std::uint64_t steps_ = 0;
};

double sum(const std::vector<double>& v) {
    double t = 0.0;
    for (const double x : v) t += x;
    return t;
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

void add_work_counts(Outcome& out, const EngineSummary& s) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.add("engine.idle_slot_ratio",
            ratio(d(s.idle_windows), d(s.windows + s.idle_windows)), "ratio");
    out.add("engine.ack_delivered_ratio",
            ratio(d(s.acks_delivered), d(s.acks_delivered + s.acks_lost)), "ratio");
    out.add("fec_lite.recovered_ratio",
            ratio(d(s.fec_windows_recovered),
                  d(s.fec_windows_recovered + s.fec_windows_unrecovered)),
            "ratio");
    out.add("nack_lite.requests_per_kwindow",
            ratio(1000.0 * d(s.nack_requests_sent), d(s.windows)), "count");
    out.add("nack_lite.repairs_per_request",
            ratio(d(s.nack_repair_packets), d(s.nack_requests_sent)), "ratio");
    out.add("governor_lite.non_normal_share",
            ratio(d(s.windows - s.governor_windows[0]), d(s.windows)), "ratio");
}

}  // namespace

Outcome run_engine_fleet(const Args& args) {
    Outcome out;
    const EngineConfig cfg = fleet_config(args.seed);
    FreshArenas arenas;

    // Set-up: constructor (arenas, k-CPO cache, generation-0 spawn) plus
    // the warm-up steps.  The first precedes the timed phase; the repeats
    // behind setup_s's median run after it, on a warm machine.
    // The timed engine is built on a fresh arena; the repeats are built on
    // this thread, so they reuse the freed memory instead of each holding
    // an arena of their own, and peak_rss_mb stays one engine's.
    std::vector<double> setup;
    const auto set_up = [&cfg, &setup](FreshArenas* fresh) {
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<ShardedEngine> e;
        const auto build = [&cfg, &e] { e = std::make_unique<ShardedEngine>(cfg); };
        if (fresh != nullptr) {
            fresh->run(build);
        } else {
            build();
        }
        e->run(kWarmupSteps);
        setup.push_back(seconds_since(t0));
        return e;
    };
    const auto repeat_setup = [&set_up, &setup] {
        while (setup.size() < kSetupRepeats) set_up(nullptr);
    };
    std::unique_ptr<ShardedEngine> engine = set_up(&arenas);
    const EngineSummary warm = engine->summary();
    const std::size_t n = engine->config().window_ldus;
    if (!summary_ok(warm, n)) {
        throw std::runtime_error("engine_fleet: warm-up summary fails its invariants");
    }

    if (!args.trace) {
        const TimedSteps t = timed_steps(*engine, args.seconds, [](bool) {});
        engine.reset();
        repeat_setup();
        out.attempted = t.step_ms.size();
        out.failed = t.failed;
        out.fingerprint = t.fingerprint;
        const std::size_t steps = t.step_ms.size();
        // Churn holds the active population near its equilibrium, so a
        // step's session-windows barely vary: the mean per step over the
        // step time at the throughput quantile is that quantile of the
        // per-step throughputs.
        const double windows_per_step =
            static_cast<double>(t.windows) / static_cast<double>(steps);
        out.add("windows_per_s",
                ratio(windows_per_step,
                      quantile(t.step_ms, 1.0 - kThroughputQuantile) / 1e3),
                "1/s", steps);
        out.add("step_ms_p50", quantile(t.step_ms, 0.50), "ms", steps, false);
        out.add("step_ms_p90", quantile(t.step_ms, 0.90), "ms", steps, false);
        out.add("setup_s", median(setup), "s", setup.size());
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.notes.push_back("engine_fleet: " + std::to_string(steps) + " timed steps (" +
                            std::to_string(steps / 10) + " beyond p90), " +
                            std::to_string(t.windows) + " session-windows");
        return out;
    }

    // Traced run: the replay catches up with the engine's warm-up, then
    // runs the same step next to every untraced engine step, alternately
    // before and after it, so both sides see the same machine conditions.
    std::optional<ReplayEngine> built;
    arenas.run([&built, &engine] { built.emplace(engine->config()); });
    ReplayEngine& replay = *built;
    for (std::size_t i = 0; i < kWarmupSteps; ++i) replay.step(false);
    const std::uint64_t replay_before = replay.summary().windows;
    std::size_t pair = 0;
    const TimedSteps base =
        timed_steps(*engine, args.seconds / 2.0, [&replay, &pair](bool before) {
            if (before == (pair % 2 == 0)) replay.step(true);
            if (!before) ++pair;
        });
    const std::size_t steps = base.step_ms.size();
    const EngineSummary final_summary = replay.summary();
    const bool same =
        espread::engine::summary_json(final_summary) == base.final_json &&
        replay.series_json() ==
            espread::obs::telemetry::snapshot_series_json(*engine->telemetry());
    out.attempted = steps;
    out.failed = base.failed + (same ? 0 : steps);
    out.fingerprint = base.fingerprint;
    if (!same) {
        out.notes.push_back("engine_fleet: replay summary_json differs from the engine's");
    }

    std::vector<double> skew, coverage;
    for (std::size_t i = 0; i < steps; ++i) {
        skew.push_back(ratio(replay.shard_max_ms[i], replay.shard_mean_ms[i]));
        coverage.push_back(ratio(replay.step_ms[i], base.step_ms[i]));
    }
    const double capture_total = sum(replay.capture_ms);
    const double traced_ms = sum(replay.step_ms);
    const double untraced_ms = sum(base.step_ms);
    const double windows = static_cast<double>(final_summary.windows - replay_before);

    out.add("engine.shard_busy_ms", mean(replay.shard_mean_ms), "ms", steps);
    out.add("engine.ns_per_session_window", ratio(replay.busy_ns_total, windows), "ns");
    out.add("engine.shard_skew", mean(skew), "ratio", steps);
    out.add("engine.dispatch_ms", mean(replay.dispatch_ms), "ms", steps);
    out.add("obs.telemetry.capture_ms", mean(replay.capture_ms), "ms",
            replay.capture_ms.size());
    out.add("obs.telemetry.share", ratio(capture_total, traced_ms), "ratio");
    out.add("engine.pool_build_s", replay.pool_build_s, "s");
    // Per step pair, so a neighbour's burst on one step does not skew it.
    out.add("engine.coverage", median(coverage), "ratio", steps);
    add_work_counts(out, final_summary);
    const double traced_wps = ratio(windows, traced_ms / 1e3);
    const double untraced_wps = ratio(static_cast<double>(base.windows), untraced_ms / 1e3);
    out.add("bench.traced_windows_per_s", traced_wps, "1/s");
    out.add("bench.trace_overhead", ratio(untraced_wps, traced_wps) - 1.0, "ratio");
    char line[160];
    std::snprintf(line, sizeof line,
                  "engine_fleet traced: %zu steps replayed, untraced %.0f vs traced "
                  "%.0f windows/s",
                  steps, untraced_wps, traced_wps);
    out.notes.push_back(line);
    return out;
}

}  // namespace perfbench
