// Adversarial-network bench: protocol resilience under fault injection.
//
// The paper evaluates error spreading against Gilbert loss alone; real
// datagram paths also reorder, duplicate, corrupt and jitter packets, and
// outages can kill the feedback path outright.  This bench sweeps the
// paper's Fig. 8 setup (Jurassic Park, P_good = 0.92 / P_bad = 0.6) through
// escalating impairment mixes on top of that loss and reports how the
// scrambled scheme's CLF degrades — plus the impairment accounting
// (duplicates, checksum rejections, reorders, scripted drops and what the
// hardened receiver discarded) that makes the degradation explainable.
//
// Emits BENCH_impairment.json (--out=FILE overrides) for cross-PR
// tracking; --trials=N / --threads=T as in the other Monte-Carlo benches.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "net/fault.hpp"
#include "protocol/session.hpp"

using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::TrialSummary;
using espread::net::ImpairmentConfig;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

struct Cell {
    const char* name;
    const char* description;
    ImpairmentConfig data;
    ImpairmentConfig feedback;
    bool ack_blackout = false;  ///< additionally kill ACKs for windows 3-5
};

std::vector<Cell> cells() {
    std::vector<Cell> out;
    out.push_back({"baseline", "Gilbert loss only (Fig. 8 setup)", {}, {}});

    Cell reorder{"reorder", "30% reordered, displacement <= 4", {}, {}};
    reorder.data.reorder_rate = 0.3;
    out.push_back(reorder);

    Cell duplicate{"duplicate", "20% duplicated (copy +1 ms)", {}, {}};
    duplicate.data.duplicate_rate = 0.2;
    out.push_back(duplicate);

    Cell corrupt{"corrupt", "15% corrupted headers (<= 3 bit flips)", {}, {}};
    corrupt.data.corrupt_rate = 0.15;
    corrupt.feedback.corrupt_rate = 0.15;
    out.push_back(corrupt);

    Cell jitter{"jitter", "40% jittered (<= 8 ms extra delay)", {}, {}};
    jitter.data.jitter_rate = 0.4;
    jitter.data.jitter_max = espread::sim::from_millis(8.0);
    out.push_back(jitter);

    Cell blackout{"ack-blackout", "ACK path dead for windows 3-5", {}, {}};
    blackout.ack_blackout = true;
    out.push_back(blackout);

    Cell sink{"kitchen-sink",
              "reorder 20% + duplicate 15% + corrupt 10% + jitter 30% + "
              "ACK blackout",
              {},
              {}};
    sink.data.reorder_rate = 0.2;
    sink.data.duplicate_rate = 0.15;
    sink.data.corrupt_rate = 0.1;
    sink.data.jitter_rate = 0.3;
    sink.feedback.corrupt_rate = 0.1;
    sink.ack_blackout = true;
    out.push_back(sink);

    return out;
}

SessionConfig cell_config(const Cell& cell, std::uint64_t seed) {
    SessionConfig cfg;  // defaults match the paper's Fig. 8 setup
    cfg.data_loss = {0.92, 0.6};
    cfg.feedback_loss = {0.92, 0.6};
    cfg.scheme = Scheme::kLayeredSpread;
    cfg.num_windows = 100;
    cfg.seed = seed;
    cfg.collect_metrics = true;
    cfg.data_impairment = cell.data;
    cfg.feedback_impairment = cell.feedback;
    if (cell.ack_blackout) cfg.blackout_feedback_windows(3, 5);
    return cfg;
}

std::uint64_t metric(const TrialSummary& s, const char* name) {
    return s.metrics.counter(name);
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = espread::exp::parse_runner_args(argc, argv);
    MonteCarloRunner runner(opts);
    constexpr std::uint64_t kSeed = 42;

    std::printf("== Impairment sweep: scrambled scheme under adversarial "
                "networks ==\n");
    std::printf("   (Fig. 8 setup + fault injection; %zu trials x 100 "
                "windows per cell, %zu threads)\n\n",
                runner.trials(), runner.threads());
    std::printf("%-14s %-10s %-10s %8s %8s %8s %8s\n", "cell", "mean CLF",
                "dev CLF", "dup", "corrupt", "reorder", "rx-drop");

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("impairment");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    double wall = 0.0;
    std::size_t windows = 0;
    json.key("cells").begin_array();
    for (const Cell& cell : cells()) {
        const TrialSummary s = runner.run(cell_config(cell, kSeed));
        wall += s.wall_seconds;
        windows += s.total_windows;
        const std::uint64_t rx_drop = metric(s, "recv_duplicates_dropped") +
                                      metric(s, "recv_stale_dropped") +
                                      metric(s, "recv_mismatch_dropped");
        std::printf("%-14s %-10.3f %-10.3f %8llu %8llu %8llu %8llu\n",
                    cell.name, s.window_clf.mean(), s.window_clf.deviation(),
                    static_cast<unsigned long long>(
                        metric(s, "data_packets_duplicated")),
                    static_cast<unsigned long long>(
                        metric(s, "data_packets_corrupt_rejected")),
                    static_cast<unsigned long long>(
                        metric(s, "data_packets_reordered")),
                    static_cast<unsigned long long>(rx_drop));
        json.begin_object();
        json.key("cell").value(cell.name);
        json.key("description").value(cell.description);
        json.key("summary");
        espread::exp::append_summary(json, s);
        json.end_object();
    }
    json.end_array();
    json.key("wall_seconds").value(wall);
    json.key("windows_per_second")
        .value(wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    json.end_object();

    std::printf("\nshape check: the baseline cell matches bench_fig8_loss's "
                "scrambled cell\n(impairments off = byte-identical "
                "simulation), and every impaired cell\nterminates with "
                "finite CLF — no crash, no double-counted LDUs.\n");
    std::printf("\nthroughput: %zu windows in %.2f s = %.0f windows/sec\n",
                windows, wall,
                wall > 0 ? static_cast<double>(windows) / wall : 0.0);

    const std::string out =
        opts.out_path.empty() ? "BENCH_impairment.json" : opts.out_path;
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    if (!opts.trace_path.empty()) {
        SessionConfig traced = cell_config(cells().back(), kSeed);
        espread::exp::write_session_trace(traced, opts.trace_path);
        std::printf("wrote %s\n", opts.trace_path.c_str());
    }
    return 0;
}
