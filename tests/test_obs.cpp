// Observability layer: TraceRecorder ring semantics, Chrome trace export
// validity, MetricsRegistry merge determinism, and the consistency of the
// metrics a real session collects.
#include "obs/trace.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "protocol/session.hpp"
#include "sim/rng.hpp"
#include "json_check.hpp"

namespace sim = espread::sim;

using espread::obs::Actor;
using espread::obs::EventType;
using espread::obs::MetricsRegistry;
using espread::obs::TraceEvent;
using espread::obs::TraceRecorder;
using espread::testing::is_valid_json;

namespace {

TraceEvent make_event(sim::SimTime t, Actor actor, std::uint64_t seq) {
    TraceEvent e;
    e.time = t;
    e.actor = actor;
    e.seq = seq;
    return e;
}

TEST(TraceRecorder, KeepsEventsInRecordOrder) {
    TraceRecorder rec(8);
    for (std::uint64_t i = 0; i < 5; ++i) {
        rec.record(make_event(static_cast<sim::SimTime>(i), Actor::kServer, i));
    }
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.capacity(), 8u);
    EXPECT_EQ(rec.evicted(), 0u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].seq, i);
}

TEST(TraceRecorder, RingEvictsOldestFirst) {
    TraceRecorder rec(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        rec.record(make_event(static_cast<sim::SimTime>(i), Actor::kClient, i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.evicted(), 6u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    // The four youngest survive, oldest-first.
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].seq, 6 + i);
}

TEST(TraceRecorder, RejectsZeroCapacity) {
    EXPECT_THROW(TraceRecorder(0), std::invalid_argument);
}

// Extracts the ts values of every instant event, grouped by track.  Relies
// on the exporter's fixed key order ("tid" immediately followed by "ts");
// metadata events carry no "ts" and are skipped.
std::map<long long, std::vector<double>> per_track_timestamps(
    const std::string& json) {
    std::map<long long, std::vector<double>> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
        pos += 6;
        char* end = nullptr;
        const long long tid = std::strtoll(json.c_str() + pos, &end, 10);
        std::size_t next = static_cast<std::size_t>(end - json.c_str());
        if (json.compare(next, 6, ",\"ts\":") == 0) {
            out[tid].push_back(std::strtod(json.c_str() + next + 6, nullptr));
        }
        pos = next;
    }
    return out;
}

TEST(ChromeTrace, EmptyRecordingIsValidJson) {
    const std::string json = espread::obs::chrome_trace_json({});
    EXPECT_TRUE(is_valid_json(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, SortsInterleavedEventsByTime) {
    std::vector<TraceEvent> events;
    events.push_back(make_event(sim::from_millis(5), Actor::kServer, 2));
    events.push_back(make_event(sim::from_millis(1), Actor::kServer, 1));
    events.push_back(make_event(sim::from_millis(3), Actor::kClient, 3));
    const std::string json = espread::obs::chrome_trace_json(events);
    EXPECT_TRUE(is_valid_json(json));
    const auto tracks = per_track_timestamps(json);
    // Server track: 1 ms then 5 ms (microsecond units).
    const auto server = tracks.at(static_cast<long long>(Actor::kServer) + 1);
    ASSERT_EQ(server.size(), 2u);
    EXPECT_DOUBLE_EQ(server[0], 1000.0);
    EXPECT_DOUBLE_EQ(server[1], 5000.0);
}

TEST(ChromeTrace, TracedSessionExportsValidMonotoneTimeline) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 20;
    cfg.seed = 11;
    TraceRecorder rec(1 << 18);
    cfg.trace = &rec;
    espread::proto::run_session(cfg);

    ASSERT_GT(rec.size(), 0u);
    EXPECT_EQ(rec.evicted(), 0u) << "capacity too small for the test session";

    // Every event class the session emits should actually show up.
    std::map<EventType, std::size_t> by_type;
    for (const TraceEvent& e : rec.events()) ++by_type[e.type];
    EXPECT_GT(by_type[EventType::kPacketSent], 0u);
    EXPECT_GT(by_type[EventType::kPacketLost], 0u);
    EXPECT_GT(by_type[EventType::kFrameComplete], 0u);
    EXPECT_GT(by_type[EventType::kWindowFinalized], 0u);
    EXPECT_GT(by_type[EventType::kAckSent], 0u);
    EXPECT_GT(by_type[EventType::kEstimatorUpdate], 0u);

    const std::string json = espread::obs::chrome_trace_json(rec.events());
    ASSERT_TRUE(is_valid_json(json));

    const auto tracks = per_track_timestamps(json);
    EXPECT_GE(tracks.size(), 3u);  // server, data channel, client at least
    for (const auto& [tid, ts] : tracks) {
        for (std::size_t i = 1; i < ts.size(); ++i) {
            ASSERT_LE(ts[i - 1], ts[i])
                << "track " << tid << " not monotone at event " << i;
        }
    }
}

TEST(ChromeTrace, WritesLoadableFile) {
    const std::string path = ::testing::TempDir() + "/espread_trace_test.json";
    std::vector<TraceEvent> events;
    events.push_back(make_event(sim::from_millis(2), Actor::kDataChannel, 7));
    espread::obs::write_chrome_trace_file(path, events);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(is_valid_json(ss.str()));
    EXPECT_NE(ss.str().find("\"PacketSent\""), std::string::npos);
}

TEST(MetricsRegistry, CountersAccumulate) {
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.counter("acks_sent"), 0u);
    m.add("acks_sent");
    m.add("acks_sent", 4);
    EXPECT_EQ(m.counter("acks_sent"), 5u);
    EXPECT_EQ(m["acks_sent"], 5u);
    EXPECT_FALSE(m.empty());
    // Runtime lookups of names outside the table read as absent.
    EXPECT_EQ(m.counter("missing"), 0u);
    EXPECT_EQ(m.find_histogram("missing"), nullptr);
}

TEST(MetricsRegistry, PresenceIsPerSlotAndIncludesZeros) {
    MetricsRegistry m;
    m.add("acks_stale", 0);
    m.open({"nack_requests_sent", "nack_retx_bits"});
    const auto counters = m.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first, "acks_stale");
    EXPECT_EQ(counters[1].first, "nack_requests_sent");
    EXPECT_EQ(counters[2].first, "nack_retx_bits");
    for (const auto& [name, value] : counters) EXPECT_EQ(value, 0u) << name;
    EXPECT_TRUE(m.histograms().empty());
}

TEST(MetricsRegistry, HistogramsCreatedOnFirstUse) {
    MetricsRegistry m;
    EXPECT_EQ(m.find_histogram("window_clf"), nullptr);
    m.hist("window_clf").record(3);
    m.hist("window_clf").record(3);
    ASSERT_NE(m.find_histogram("window_clf"), nullptr);
    EXPECT_EQ(m.find_histogram("window_clf")->total(), 2u);
    m.hist("rlc_decode_delay_ms");  // present while still empty
    ASSERT_NE(m.find_histogram("rlc_decode_delay_ms"), nullptr);
    EXPECT_EQ(m.find_histogram("rlc_decode_delay_ms")->total(), 0u);
    EXPECT_TRUE(m.counters().empty());
}

TEST(MetricsRegistry, MergeAddsCountersAndHistograms) {
    MetricsRegistry a, b;
    a.add("acks_sent", 1);
    a.add("acks_applied", 2);
    a.hist("window_clf").record(1);
    b.add("acks_sent", 10);
    b.add("acks_stale", 20);
    b.open({"nack_requests_sent"});
    b.hist("window_clf").record(2);
    b.hist("bound_used").record(3);
    a.merge(b);
    EXPECT_EQ(a.counter("acks_sent"), 11u);
    EXPECT_EQ(a.counter("acks_applied"), 2u);
    EXPECT_EQ(a.counter("acks_stale"), 20u);
    EXPECT_EQ(a.counters().size(), 4u);  // the zero nack_requests_sent too
    EXPECT_EQ(a.find_histogram("window_clf")->total(), 2u);
    EXPECT_EQ(a.find_histogram("bound_used")->total(), 1u);
}

std::string metrics_json(const MetricsRegistry& m) {
    espread::exp::JsonWriter j;
    espread::obs::append_metrics(j, m);
    return j.str();
}

TEST(MetricsRegistry, SerializationIndependentOfInsertionOrder) {
    MetricsRegistry a;
    a.add("retransmissions", 1);
    a.add("acks_applied", 2);
    a.hist("window_packet_burst").record(1);
    a.hist("bound_used").record(2);

    MetricsRegistry b;
    b.hist("bound_used").record(2);
    b.hist("window_packet_burst").record(1);
    b.add("acks_applied", 2);
    b.add("retransmissions", 1);

    EXPECT_EQ(metrics_json(a), metrics_json(b));
    EXPECT_TRUE(is_valid_json(metrics_json(a)));
}

// ---- golden registry output ---------------------------------------------
//
// Two FNV-1a digests per session config, pinned so that a change to how
// the registry stores, merges or serializes its slots cannot move a key, a
// value or the key order unnoticed.  The counter digest hashes the
// counters object alone; the histogram digest hashes each histogram's
// obs::append_histogram encoding.  Keeping them apart lets a change to the
// histogram encoding re-record one digest while the other proves the
// counters did not move.

namespace proto = espread::proto;

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    return h;
}

std::uint64_t counters_digest(const MetricsRegistry& m) {
    espread::exp::JsonWriter j;
    j.begin_object();
    for (const auto& [name, value] : m.counters()) j.key(name).value(value);
    j.end_object();
    return fnv1a(j.str());
}

std::uint64_t histograms_digest(const MetricsRegistry& m) {
    espread::exp::JsonWriter j;
    j.begin_object();
    for (const auto& [name, hist] : m.histograms()) {
        j.key(name);
        espread::obs::append_histogram(j, *hist);
    }
    j.end_object();
    return fnv1a(j.str());
}

bool has_counter_prefix(const MetricsRegistry& m, std::string_view prefix) {
    for (const auto& [name, value] : m.counters()) {
        if (std::string_view(name).rfind(prefix, 0) == 0) return true;
    }
    return false;
}

proto::SessionConfig paper_config() {
    proto::SessionConfig cfg;  // MPEG "Jurassic Park", W = 2, Fig. 8 channels
    cfg.collect_metrics = true;
    cfg.seed = 3;
    return cfg;
}

proto::SessionConfig impaired_config() {
    proto::SessionConfig cfg = paper_config();
    cfg.data_impairment.reorder_rate = 0.03;
    cfg.data_impairment.duplicate_rate = 0.03;
    cfg.data_impairment.corrupt_rate = 0.03;
    cfg.data_impairment.jitter_rate = 0.05;
    cfg.feedback_impairment.corrupt_rate = 0.05;
    return cfg;
}

proto::SessionConfig rlc_config() {
    proto::SessionConfig cfg = paper_config();
    cfg.scheme = proto::Scheme::kHybridSpreadRlc;
    return cfg;
}

proto::SessionConfig recovery_config() {
    proto::SessionConfig cfg = paper_config();
    cfg.recovery.enabled = true;
    return cfg;
}

proto::SessionConfig governed_config() {
    proto::SessionConfig cfg = paper_config();
    cfg.governor.enabled = true;
    cfg.blackout_feedback_windows(20, 30);
    return cfg;
}

/// perfbench's session_repair workload, session 0 at seed 7.
proto::SessionConfig repair_config() {
    proto::SessionConfig cfg;
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
    cfg.seed = sim::derive_seed(7, 0);
    return cfg;
}

TEST(MetricsGolden, SessionRegistriesMatchTheirDigests) {
    const struct {
        const char* name;
        proto::SessionConfig cfg;
        std::uint64_t counters;
        std::uint64_t histograms;
    } cases[] = {
        {"paper", paper_config(), 0x6667b79c09ca8cafull, 0x5a5b92ebf803fb60ull},
        {"impaired", impaired_config(), 0x311aa332576036b2ull, 0xfc015ba789617ee2ull},
        {"rlc", rlc_config(), 0x41482c1422c6e7a5ull, 0x5012eea86cafedfdull},
        {"recovery", recovery_config(), 0x3575f8807ce3d6e3ull, 0xd277ce3d7676ef45ull},
        {"governed", governed_config(), 0x8808ae3e0f0c8019ull, 0x21e38661cf3bdd34ull},
        {"session_repair", repair_config(), 0xf1adbe1ca23e721dull, 0x5b13be2b4930bcc2ull},
    };
    for (const auto& c : cases) {
        const proto::SessionResult r = proto::run_session(c.cfg);
        EXPECT_EQ(counters_digest(r.metrics), c.counters)
            << c.name << " counter digest 0x" << std::hex
            << counters_digest(r.metrics);
        EXPECT_EQ(histograms_digest(r.metrics), c.histograms)
            << c.name << " histogram digest 0x" << std::hex
            << histograms_digest(r.metrics);
    }
}

TEST(MetricsGolden, MonteCarloMergeMatchesItsDigest) {
    espread::exp::RunnerOptions opts;
    opts.trials = 4;
    opts.threads = 2;
    espread::exp::MonteCarloRunner runner(opts);
    const espread::exp::TrialSummary s = runner.run(repair_config());
    EXPECT_EQ(counters_digest(s.metrics), 0xf436cc4ed2232a0bull)
        << "merge counter digest 0x" << std::hex << counters_digest(s.metrics);
    EXPECT_EQ(histograms_digest(s.metrics), 0xfb6b247c3d68c2cdull)
        << "merge histogram digest 0x" << std::hex
        << histograms_digest(s.metrics);
}

// Only the 9 histogram slots carry an obs::Histogram; the 66 counters are
// one word each.  Every SessionResult and TrialOutcome holds a registry.
TEST(MetricsRegistry, StaysUnder24KiB) {
    EXPECT_LE(sizeof(MetricsRegistry), 24u * 1024u);
}

TEST(MetricsGolden, GatedGroupsAppearOnlyWhenTheirFeatureRan) {
    const proto::SessionResult plain = proto::run_session(paper_config());
    EXPECT_FALSE(has_counter_prefix(plain.metrics, "data_packets_duplicated"));
    EXPECT_FALSE(has_counter_prefix(plain.metrics, "nack_"));
    EXPECT_FALSE(has_counter_prefix(plain.metrics, "recovery_"));
    EXPECT_FALSE(has_counter_prefix(plain.metrics, "rlc_"));
    EXPECT_FALSE(has_counter_prefix(plain.metrics, "governor_"));
    EXPECT_TRUE(has_counter_prefix(plain.metrics, "acks_stale"));

    const proto::SessionResult impaired = proto::run_session(impaired_config());
    EXPECT_TRUE(has_counter_prefix(impaired.metrics, "data_packets_duplicated"));
    EXPECT_FALSE(has_counter_prefix(impaired.metrics, "nack_"));

    const proto::SessionResult rlc = proto::run_session(rlc_config());
    EXPECT_TRUE(has_counter_prefix(rlc.metrics, "rlc_forged_rejected"));
    EXPECT_NE(rlc.metrics.find_histogram("rlc_decode_delay_ms"), nullptr);
    EXPECT_FALSE(has_counter_prefix(rlc.metrics, "nack_"));
    EXPECT_FALSE(has_counter_prefix(rlc.metrics, "recovery_"));

    // Recovery on: the whole plane shows, zeros included.
    const proto::SessionResult rec = proto::run_session(recovery_config());
    EXPECT_TRUE(has_counter_prefix(rec.metrics, "nack_credits_expired"));
    EXPECT_TRUE(has_counter_prefix(rec.metrics, "recovery_jobs_shed"));
    EXPECT_FALSE(has_counter_prefix(rec.metrics, "rlc_"));
}

TEST(SessionMetrics, ConsistentWithSessionResult) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 30;
    cfg.seed = 5;
    cfg.collect_metrics = true;
    const espread::proto::SessionResult r = espread::proto::run_session(cfg);

    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counter("data_packets_sent"), r.data_channel.sent);
    EXPECT_EQ(r.metrics.counter("data_packets_dropped"),
              r.data_channel.dropped);
    EXPECT_EQ(r.metrics.counter("acks_sent"), r.acks_sent);
    EXPECT_EQ(r.metrics.counter("acks_applied"), r.acks_applied);

    std::uint64_t retx = 0;
    for (const auto& w : r.windows) retx += w.retransmissions;
    EXPECT_EQ(r.metrics.counter("retransmissions"), retx);

    // Every lost packet belongs to exactly one loss run.
    const auto* runs = r.metrics.find_histogram("loss_run_length");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->sum(), r.data_channel.dropped);

    const auto* clf = r.metrics.find_histogram("window_clf");
    ASSERT_NE(clf, nullptr);
    EXPECT_EQ(clf->total(), r.windows.size());
}

TEST(SessionMetrics, OffByDefault) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 3;
    const espread::proto::SessionResult r = espread::proto::run_session(cfg);
    EXPECT_TRUE(r.metrics.empty());
}

}  // namespace
