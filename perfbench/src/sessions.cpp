// Session workloads: the fidelity path, proto::Session.
//
//   session_paper   the paper's own experiment: MPEG "Jurassic Park",
//                   W = 2 GOPs, kLayeredSpread, adaptive EWMA, critical
//                   retransmission, Fig. 8 channels, 100 windows; no
//                   metrics, null trace sink.
//   session_repair  MJPEG, 16 LDUs per window, kHybridSpreadRlc at 2/10
//                   overhead with the NACK recovery plane and the governor;
//                   2% reorder / duplicate / corrupt and 5% jitter on the
//                   data path, 2% corruption plus a scripted blackout on
//                   the feedback path; metrics on, 100 windows.
//
// Two workers each run one session after another (a closed loop with two
// clients).  Session i has seed sim::derive_seed(seed, i), the derivation
// exp::MonteCarloRunner uses.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "protocol/report.hpp"
#include "protocol/session.hpp"
#include "replay.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace proto = espread::proto;

/// Sessions whose summaries make up the output fingerprint (indices
/// 0..kFingerprintSessions-1, always run even on a slow box).
constexpr std::size_t kFingerprintSessions = 64;
/// Every this many fingerprinted sessions one is rerun with metrics on
/// and must reproduce its summary byte for byte.
constexpr std::size_t kRerunEvery = 8;
/// The untraced phase runs in slices of about this many seconds;
/// windows_per_s is the kThroughputQuantile of the slices' throughputs.
constexpr double kSliceSeconds = 0.25;
/// Set-up repeats between consecutive slices; setup_s is the median of
/// those plus the first set-up.
constexpr std::size_t kSetupsPerSlice = 1;
/// Warm-up sessions use indices from here, apart from the timed ones.
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 40;
/// Sessions the traced run replays layer by layer.
constexpr std::size_t kReplaySessions = 32;

proto::SessionConfig session_config(const std::string& workload, std::uint64_t seed,
                                    std::uint64_t index) {
    proto::SessionConfig cfg;  // MPEG "Jurassic Park", W = 2, Fig. 8 channels
    cfg.scheme = proto::Scheme::kLayeredSpread;
    cfg.num_windows = 100;
    if (workload == "session_repair") {
        cfg.stream.kind = proto::StreamKind::kMjpeg;
        cfg.stream.ldus_per_window = 16;
        cfg.scheme = proto::Scheme::kHybridSpreadRlc;
        cfg.rlc.overhead_num = 2;
        cfg.rlc.overhead_den = 10;
        cfg.recovery.enabled = true;
        cfg.governor.enabled = true;
        cfg.data_impairment.reorder_rate = 0.02;
        cfg.data_impairment.duplicate_rate = 0.02;
        cfg.data_impairment.corrupt_rate = 0.02;
        cfg.data_impairment.jitter_rate = 0.05;
        cfg.feedback_impairment.corrupt_rate = 0.02;
        cfg.blackout_feedback_windows(40, 44);
        cfg.collect_metrics = true;
    }
    cfg.seed = espread::sim::derive_seed(seed, index);
    return cfg;
}

bool ledger_ok(const espread::net::ChannelStats& c) {
    return c.delivered + c.dropped + c.corrupt_rejected == c.sent + c.duplicated;
}

bool has_recovery_keys(const proto::SessionResult& r) {
    for (const auto& [name, value] : r.metrics.counters()) {
        if (name.rfind("nack_", 0) == 0 || name.rfind("recovery_", 0) == 0) return true;
    }
    return false;
}

/// The per-session output checks (the rerun check is separate).
bool session_ok(const proto::SessionConfig& cfg, const proto::SessionResult& r,
                bool forbid_recovery) {
    const std::size_t n = cfg.window_ldus();
    if (r.windows.size() != cfg.num_windows) return false;
    for (const proto::WindowReport& w : r.windows) {
        if (w.clf > n || w.lost_ldus > n) return false;
    }
    if (!(r.total.alf >= 0.0 && r.total.alf <= 1.0)) return false;
    if (!ledger_ok(r.data_channel) || !ledger_ok(r.feedback_channel)) return false;
    return !(forbid_recovery && has_recovery_keys(r));
}

/// Fingerprint material of one session: its summary line plus the
/// per-window series behind it.
std::string session_digest(const proto::SessionResult& r) {
    std::string s = proto::summarize(r);
    for (const proto::WindowReport& w : r.windows) {
        s += ' ' + std::to_string(w.clf) + ',' + std::to_string(w.lost_ldus) + ',' +
             std::to_string(w.bound_used) + ',' + std::to_string(w.retransmissions);
    }
    return s;
}

struct SessionRecord {
    double construct_ms = 0.0;
    double run_ms = 0.0;
    std::size_t windows = 0;
};

/// What one closed-loop phase measured.
struct Phase {
    std::vector<SessionRecord> records;
    std::vector<std::string> digests;  // per fingerprinted index
    std::uint64_t failed = 0;
    double wall_s = 0.0;
    std::size_t windows = 0;
    /// Session-windows per wall second of each slice.
    std::vector<double> slice_wps;
};

/// One closed-loop phase: kWorkers workers run sessions back to back
/// until `seconds` of phase time have passed (and every fingerprinted
/// index has run).  The phase runs in `segments` equal slices; `between`
/// runs after every slice but the last, outside the phase's wall time.
template <typename Between>
Phase run_phase(const Args& args, double seconds, std::size_t segments,
                Between between) {
    Phase phase;
    phase.digests.resize(kFingerprintSessions);
    const bool forbid_recovery = args.workload == "session_paper";
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    std::vector<std::vector<SessionRecord>> per_worker(kWorkers);
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / static_cast<double>(segments)));
    for (std::size_t seg = 0; seg < segments; ++seg) {
        const Clock::time_point start = Clock::now();
        const Clock::time_point deadline = start + slice;
        std::vector<std::size_t> slice_windows(kWorkers, 0);
        std::vector<std::thread> workers;
        for (std::size_t w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
                for (;;) {
                    const std::uint64_t i = next.fetch_add(1);
                    if (i >= kFingerprintSessions && Clock::now() >= deadline) break;
                    const proto::SessionConfig cfg =
                        session_config(args.workload, args.seed, i);
                    try {
                        const Clock::time_point t0 = Clock::now();
                        proto::Session session(cfg);
                        const Clock::time_point t1 = Clock::now();
                        const proto::SessionResult r = session.run();
                        const Clock::time_point t2 = Clock::now();
                        per_worker[w].push_back(SessionRecord{
                            seconds_between(t0, t1) * 1e3,
                            seconds_between(t1, t2) * 1e3, r.windows.size()});
                        slice_windows[w] += r.windows.size();
                        const bool ok = session_ok(cfg, r, forbid_recovery);
                        if (!ok) failed.fetch_add(1);
                        if (i < kFingerprintSessions) {
                            phase.digests[i] = ok ? session_digest(r) : std::string("FAILED");
                        }
                    } catch (const std::exception& e) {
                        std::fprintf(stderr, "perfbench: session %llu: %s\n",
                                     static_cast<unsigned long long>(i), e.what());
                        failed.fetch_add(1);
                        per_worker[w].push_back(SessionRecord{});
                        if (i < kFingerprintSessions) phase.digests[i] = "FAILED";
                    }
                }
            });
        }
        for (std::thread& t : workers) t.join();
        const double wall_s = seconds_since(start);
        phase.wall_s += wall_s;
        std::size_t windows = 0;
        for (const std::size_t v : slice_windows) windows += v;
        phase.slice_wps.push_back(ratio(static_cast<double>(windows), wall_s));
        if (seg + 1 < segments) between();
    }
    phase.failed = failed.load();
    for (const std::vector<SessionRecord>& v : per_worker) {
        for (const SessionRecord& r : v) {
            phase.records.push_back(r);
            phase.windows += r.windows;
        }
    }
    return phase;
}

/// Reruns every kRerunEvery-th fingerprinted session with metrics on; it
/// must reproduce its digest exactly (and, on session_paper, register no
/// recovery-plane counter).  Returns the number of failed reruns.
std::uint64_t rerun_check(const Args& args, const Phase& phase) {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < kFingerprintSessions; i += kRerunEvery) {
        proto::SessionConfig cfg = session_config(args.workload, args.seed, i);
        cfg.collect_metrics = true;
        const proto::SessionResult r = proto::run_session(cfg);
        const bool forbid = args.workload == "session_paper";
        if (session_digest(r) != phase.digests[i] || (forbid && has_recovery_keys(r))) {
            ++failed;
        }
    }
    return failed;
}

/// Set-up: start the workers and run one untimed warm-up session on each.
/// Repeat `repeat` uses warm-up sessions of its own: a session's cost
/// depends on its seed, so the median over repeats then averages over
/// many sessions instead of timing the same two every time.
double setup_once(const Args& args, std::uint64_t repeat) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&args, repeat, w] {
            try {
                proto::run_session(session_config(args.workload, args.seed,
                                                  kWarmupIndex + repeat * kWorkers + w));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: warm-up session: %s\n", e.what());
            }
        });
    }
    for (std::thread& t : workers) t.join();
    return seconds_since(t0);
}

std::uint64_t fingerprint_of(const Phase& phase) {
    std::uint64_t h = fnv1a("");
    for (const std::string& d : phase.digests) h = fnv1a(d + '\n', h);
    return h;
}

/// Counts events without storing them: the benchmark-owned sink of the
/// trace-overhead pair.
class CountingSink final : public espread::obs::TraceSink {
public:
    void record(const espread::obs::TraceEvent&) override { ++events; }
    std::size_t events = 0;
};

/// Session::run time of one session, in ms (construction untimed).
double run_ms(const proto::SessionConfig& cfg, proto::SessionResult* keep = nullptr) {
    proto::Session session(cfg);
    const Clock::time_point t0 = Clock::now();
    proto::SessionResult r = session.run();
    const double ms = seconds_since(t0) * 1e3;
    if (keep != nullptr) *keep = std::move(r);
    return ms;
}

/// The traced run's single-threaded part over the first kReplaySessions
/// sessions: paired metrics-on/off and counting-sink/null-sink runs, the
/// per-layer replays, and the work counts.
void trace_ledger(const Args& args, const Phase& spans, Outcome& out) {
    double cfg_ms = 0.0, flip_ms = 0.0, traced_ms = 0.0;
    std::size_t events = 0;
    std::vector<proto::SessionConfig> cfgs;
    std::vector<proto::SessionResult> results(kReplaySessions);
    for (std::size_t i = 0; i < kReplaySessions; ++i) {
        cfgs.push_back(session_config(args.workload, args.seed, i));
    }
    for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < kReplaySessions; ++i) {
            const proto::SessionConfig& cfg = cfgs[i];
            proto::SessionConfig flipped = cfg;
            flipped.collect_metrics = !cfg.collect_metrics;
            CountingSink sink;
            proto::SessionConfig traced = cfg;
            traced.trace = &sink;
            // Alternate the order so drift does not favour one side.
            if ((i + round) % 2 == 0) {
                cfg_ms += run_ms(cfg, round == 0 ? &results[i] : nullptr);
                flip_ms += run_ms(flipped);
                traced_ms += run_ms(traced);
            } else {
                traced_ms += run_ms(traced);
                flip_ms += run_ms(flipped);
                cfg_ms += run_ms(cfg, round == 0 ? &results[i] : nullptr);
            }
            if (round == 0) events += sink.events;
        }
    }
    LayerTimes layers;
    std::size_t windows = 0;
    for (std::size_t i = 0; i < kReplaySessions; ++i) {
        layers.add(replay_layers(cfgs[i], results[i]));
        windows += results[i].windows.size();
    }
    const double w = static_cast<double>(windows);
    const auto us = [w](double s) { return s * 1e6 / w; };
    // Single-threaded Session::run time of the replayed sessions (mean of
    // the two configured runs of each) is the coverage base.
    const double run_s = cfg_ms / 2.0 / 1e3;

    std::vector<double> construct_us, run_us_per_window;
    for (const SessionRecord& r : spans.records) {
        if (r.windows == 0) continue;
        construct_us.push_back(r.construct_ms * 1e3);
        run_us_per_window.push_back(r.run_ms * 1e3 / static_cast<double>(r.windows));
    }
    out.add("session.construct_us", median(construct_us), "us", construct_us.size());
    out.add("session.run_us_per_window", median(run_us_per_window), "us",
            run_us_per_window.size());
    out.add("media.us_per_window", us(layers.media), "us");
    out.add("protocol.planner.us_per_window", us(layers.planner), "us");
    out.add("core.us_per_window", us(layers.core), "us");
    out.add("protocol.receiver.us_per_window", us(layers.receiver), "us");
    out.add("net.channel.us_per_window", us(layers.channel), "us");
    out.add("net.fault.us_per_window", us(layers.fault), "us");
    out.add("protocol.codec.us_per_window", us(layers.codec), "us");
    out.add("fec.us_per_window", us(layers.fec), "us");
    out.add("protocol.recovery.us_per_window", us(layers.recovery), "us");
    out.add("protocol.governor.us_per_window", us(layers.governor), "us");
    out.add("session.coverage", ratio(layers.total(), run_s), "ratio");
    const bool metrics_on = cfgs[0].collect_metrics;
    const double on_ms = metrics_on ? cfg_ms : flip_ms;
    const double off_ms = metrics_on ? flip_ms : cfg_ms;
    out.add("obs.metrics_overhead", ratio(on_ms, off_ms) - 1.0, "ratio");
    out.add("obs.trace_overhead", ratio(traced_ms, cfg_ms) - 1.0, "ratio");

    // Work counts over the replayed sessions (deterministic per seed).
    double packets = 0, sent = 0, sideband = 0, corrupt = 0, retx = 0, repairs = 0,
           recovered = 0, redundant = 0, nacks = 0, received = 0, served = 0,
           admitted = 0, shed = 0, non_normal = 0;
    for (const proto::SessionResult& r : results) {
        const auto d = [](std::size_t v) { return static_cast<double>(v); };
        packets += d(r.data_channel.sent + r.feedback_channel.sent);
        sent += d(r.data_channel.sent);
        sideband += d(r.data_channel.sideband_sent);
        corrupt += d(r.data_channel.corrupt_rejected + r.feedback_channel.corrupt_rejected);
        for (const proto::WindowReport& wr : r.windows) {
            retx += d(wr.retransmissions);
            non_normal += wr.governor_state != proto::GovernorState::kNormal ? 1.0 : 0.0;
        }
        repairs += d(counter(r, "rlc_repairs_sent"));
        recovered += d(counter(r, "rlc_packets_recovered"));
        redundant += d(counter(r, "rlc_repairs_redundant"));
        nacks += d(counter(r, "nack_requests_sent"));
        received += d(counter(r, "nack_requests_received"));
        served += d(counter(r, "nack_requests_serviced"));
        admitted += d(counter(r, "recovery_nacks_admitted"));
        shed += d(counter(r, "recovery_jobs_shed"));
    }
    out.add("net.packets_per_window", packets / w, "count");
    out.add("net.sideband_share", ratio(sideband, sent), "ratio");
    out.add("net.corrupt_rejected_per_window", corrupt / w, "count");
    out.add("protocol.retx_per_window", retx / w, "count");
    out.add("fec.repairs_per_window", repairs / w, "count");
    out.add("fec.useful_ratio", ratio(recovered, repairs), "ratio");
    out.add("fec.redundant_ratio", ratio(redundant, repairs), "ratio");
    out.add("recovery.nacks_per_window", nacks / w, "count");
    out.add("recovery.served_ratio", ratio(served, received), "ratio");
    out.add("recovery.shed_ratio", ratio(shed, admitted), "ratio");
    out.add("governor.non_normal_share", non_normal / w, "ratio");
    out.add("obs.trace_events_per_window", static_cast<double>(events) / w, "count");

    char line[200];
    std::snprintf(line, sizeof line,
                  "%s traced: %zu sessions replayed (%zu windows); layers cover %.3f of "
                  "Session::run, the rest is driver and event-queue self time",
                  args.workload.c_str(), kReplaySessions, windows,
                  ratio(layers.total(), run_s));
    out.notes.push_back(line);
}

}  // namespace

Outcome run_session_workload(const Args& args) {
    Outcome out;
    // The first set-up precedes the timed phase as users see it.  The
    // repeats behind setup_s's median run between the phase's slices, so
    // they sample the same machine conditions as the timed sessions.
    std::vector<double> setup{setup_once(args, 0)};
    const auto repeat_setup = [&] {
        for (std::size_t r = 0; r < kSetupsPerSlice; ++r) {
            setup.push_back(setup_once(args, setup.size()));
        }
    };

    // Untraced phase (the whole run, or the first quarter of a traced run).
    const auto slices = static_cast<std::size_t>(
        std::max(1.0, std::round(args.seconds / kSliceSeconds)));
    const Phase phase = args.trace
                            ? run_phase(args, args.seconds / 4.0, 1, [] {})
                            : run_phase(args, args.seconds, slices, repeat_setup);
    const std::uint64_t rerun_failed = rerun_check(args, phase);
    out.attempted = phase.records.size() + kFingerprintSessions / kRerunEvery;
    out.failed = phase.failed + rerun_failed;
    out.fingerprint = fingerprint_of(phase);
    const double wps = quantile(phase.slice_wps, kThroughputQuantile);

    if (!args.trace) {
        std::vector<double> session_ms;
        for (const SessionRecord& r : phase.records) {
            session_ms.push_back(r.construct_ms + r.run_ms);
        }
        const std::size_t n = session_ms.size();
        out.add("windows_per_s", wps, "1/s", phase.slice_wps.size());
        out.add("session_ms_p50", quantile(session_ms, 0.50), "ms", n, false);
        out.add("session_ms_p90", quantile(session_ms, 0.90), "ms", n, false);
        out.add("setup_s", median(setup), "s", setup.size());
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.notes.push_back(args.workload + ": " + std::to_string(n) + " sessions (" +
                            std::to_string(n / 10) +
                            " beyond p90; session_ms = Session construction plus run()), " +
                            std::to_string(phase.windows) + " session-windows in " +
                            std::to_string(phase.slice_wps.size()) + " slices");
        return out;
    }

    // Spanned phase: the same closed loop, whose construct/run spans feed
    // the ledger.  The untraced phase takes the same per-session clock
    // reads, so tracing adds no work inside the loop; what it adds is the
    // ledger after it (paired reruns and layer replays).  The traced
    // throughput charges the spanned windows with both.
    const Phase spans = run_phase(args, args.seconds / 4.0, 1, [] {});
    out.attempted += spans.records.size();
    out.failed += spans.failed;
    const Clock::time_point ledger_start = Clock::now();
    trace_ledger(args, spans, out);
    const double traced_wps = ratio(static_cast<double>(spans.windows),
                                    spans.wall_s + seconds_since(ledger_start));
    out.add("bench.traced_windows_per_s", traced_wps, "1/s");
    out.add("bench.trace_overhead", ratio(wps, traced_wps) - 1.0, "ratio");
    return out;
}

}  // namespace perfbench
