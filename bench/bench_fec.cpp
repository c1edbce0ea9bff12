// Spreading vs. coding: the sliding-window RLC arm on the Fig. 8 channel.
//
// The paper's answer to bursty loss is zero-overhead error *spreading* —
// reorder transmissions so consecutive playback losses become isolated
// ones.  The classical alternative spends bandwidth instead: forward
// error correction.  This bench puts the two (and their hybrid) on the
// same Gilbert(0.92, 0.6) channel and sweeps repair overhead x encoding
// window:
//
//   identity — in-order transmission, no repairs (the floor)
//   spread   — k-CPO error spreading, zero overhead (the paper's scheme)
//   rlc      — in-order + sliding-window GF(256) random-linear repairs
//   hybrid   — spread *then* code: k-CPO order with RLC repairs on top
//
// Per cell: pooled mean/p99 window CLF, recovery counts, measured
// bandwidth overhead (repair bits / data bits), and the decode and
// in-order delivery delay histograms of the coded arms.  Claims checked
// (exit nonzero on failure, so CI enforces them):
//   C1  at every overhead >= 5%, some rlc window beats identity on mean
//       CLF (wide windows at low overhead are under-provisioned on this
//       channel and only get reported, not gated);
//   C2  the hybrid beats pure rlc coding in at least one cell;
//   C3  the zero-overhead arms are bit-exact reruns (uncoded sessions
//       carry no rlc_* metric keys and render byte-identically).
//
// BENCH_fec.json carries the grid plus two perf-gate keys:
// windows_per_second (sweep throughput) and gf256_mul_mbytes_per_second
// (the table-driven multiply kernel, floored in bench/baselines).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "fec/gf256.hpp"
#include "protocol/session.hpp"

using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::TrialSummary;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

struct Cell {
    const char* arm;
    Scheme scheme;
    std::size_t window;  ///< RLC encoding window (0 for uncoded arms)
    std::size_t num;     ///< overhead ratio numerator (0 for uncoded arms)
    std::size_t den;
    TrialSummary s;
};

SessionConfig cell_config(const Cell& c) {
    SessionConfig cfg;  // defaults are the Fig. 8 setup
    cfg.scheme = c.scheme;
    cfg.num_windows = 60;
    cfg.collect_metrics = true;
    cfg.seed = 42;
    if (c.window > 0) {
        cfg.rlc.window_packets = c.window;
        cfg.rlc.overhead_num = c.num;
        cfg.rlc.overhead_den = c.den;
    }
    return cfg;
}

/// Measured throughput of the nibble-sliced GF(256) multiply kernel over
/// a cache-resident row, in MB/s of source bytes processed.
double gf_kernel_mbytes_per_second() {
    constexpr std::size_t kRow = 1 << 14;
    std::vector<std::uint8_t> dst(kRow, 0x5A);
    std::vector<std::uint8_t> src(kRow);
    for (std::size_t i = 0; i < kRow; ++i) {
        src[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    // espread-lint: allow(D1) wall-clock timing of the GF(256) row kernel; never feeds seeds or the sim clock
    using clock = std::chrono::steady_clock;
    // Warm the tables, then time enough passes to dominate clock noise.
    for (int c = 2; c < 34; ++c) {
        espread::fec::gf_mul_row_add(dst.data(), src.data(), kRow,
                                     static_cast<std::uint8_t>(c));
    }
    constexpr std::size_t kPasses = 4096;
    const auto t0 = clock::now();
    for (std::size_t p = 0; p < kPasses; ++p) {
        // Coefficients 2.. keep the slicing path (not the XOR or no-op
        // special cases) under test.
        espread::fec::gf_mul_row_add(dst.data(), src.data(), kRow,
                                     static_cast<std::uint8_t>(2 + (p & 0x7F)));
    }
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    // Fold the result into a live value so the loop cannot be elided.
    std::uint8_t sink = 0;
    for (const std::uint8_t b : dst) sink = static_cast<std::uint8_t>(sink ^ b);
    if (sink == 0xFF) std::printf(" ");
    const double bytes = static_cast<double>(kRow) * kPasses;
    return secs > 0.0 ? bytes / secs / 1e6 : 0.0;
}

double counter_ratio(const TrialSummary& s, const char* a, const char* b) {
    const double den = static_cast<double>(s.metrics.counter(b));
    return den > 0.0 ? static_cast<double>(s.metrics.counter(a)) / den : 0.0;
}

void append_cell(JsonWriter& json, const Cell& c) {
    json.begin_object();
    json.key("arm").value(c.arm);
    json.key("window").value(static_cast<std::uint64_t>(c.window));
    json.key("overhead_num").value(static_cast<std::uint64_t>(c.num));
    json.key("overhead_den").value(static_cast<std::uint64_t>(c.den));
    json.key("clf_mean").value(c.s.window_clf.mean());
    json.key("clf_p99").value(c.s.clf_histogram.quantile(0.99));
    if (c.window > 0) {
        json.key("repairs_sent").value(c.s.metrics.counter("rlc_repairs_sent"));
        json.key("packets_recovered")
            .value(c.s.metrics.counter("rlc_packets_recovered"));
        json.key("packets_unrecovered")
            .value(c.s.metrics.counter("rlc_packets_unrecovered"));
        json.key("bandwidth_overhead")
            .value(counter_ratio(c.s, "rlc_repair_bits_sent", "data_bits_sent"));
        const espread::obs::Histogram* dec =
            c.s.metrics.find_histogram("rlc_decode_delay_ms");
        const espread::obs::Histogram* ord =
            c.s.metrics.find_histogram("rlc_in_order_delay_ms");
        if (dec != nullptr) {
            json.key("decode_delay_ms_mean").value(dec->mean());
            json.key("decode_delay_ms_p99").value(dec->quantile(0.99));
        }
        if (ord != nullptr) {
            json.key("in_order_delay_ms_mean").value(ord->mean());
            json.key("in_order_delay_ms_p99").value(ord->quantile(0.99));
        }
    }
    json.key("summary");
    espread::exp::append_summary(json, c.s);
    json.end_object();
}

// Deterministic view of a TrialSummary: the full append_summary JSON with
// the two wall-clock timing fields removed, so reruns of the same config
// can be compared byte-for-byte.
std::string summary_render(const TrialSummary& s) {
    JsonWriter json;
    espread::exp::append_summary(json, s);
    std::string text = json.str();
    for (const char* key : {"\"wall_seconds\":", "\"windows_per_second\":"}) {
        const std::size_t at = text.find(key);
        if (at == std::string::npos) continue;
        const std::size_t end = text.find(',', at);
        text.erase(at, end == std::string::npos ? std::string::npos
                                                : end - at + 1);
    }
    return text;
}

}  // namespace

int main(int argc, char** argv) {
    namespace sim = espread::sim;
    espread::exp::RunnerOptions defaults;
    defaults.trials = 24;
    const auto opts = espread::exp::parse_runner_args(argc, argv, defaults);
    MonteCarloRunner runner(opts);
    const std::string out =
        opts.out_path.empty() ? "BENCH_fec.json" : opts.out_path;

    const std::size_t windows[] = {32, 96};
    const std::pair<std::size_t, std::size_t> overheads[] = {
        {1, 20}, {1, 10}, {1, 5}};  // 5%, 10%, 20%

    std::vector<Cell> cells;
    cells.push_back({"identity", Scheme::kInOrder, 0, 0, 1, {}});
    cells.push_back({"spread", Scheme::kLayeredSpread, 0, 0, 1, {}});
    for (const std::size_t w : windows) {
        for (const auto& [num, den] : overheads) {
            cells.push_back({"rlc", Scheme::kRlc, w, num, den, {}});
            cells.push_back(
                {"hybrid", Scheme::kHybridSpreadRlc, w, num, den, {}});
        }
    }

    std::printf("== bench_fec: spreading vs. coding on Gilbert(0.92, 0.6) ==\n");
    std::printf("   (%zu trials x 60 windows per cell, %zu threads)\n\n",
                runner.trials(), runner.threads());
    std::printf("%-8s | %6s | %8s | %8s | %7s | %9s | %11s\n", "arm", "window",
                "overhead", "clf mean", "clf p99", "recovered",
                "ord delay ms");
    std::printf("---------+--------+----------+----------+---------+-----------+------------\n");

    double wall = 0.0;
    std::size_t total_windows = 0;
    for (Cell& c : cells) {
        c.s = runner.run(cell_config(c));
        wall += c.s.wall_seconds;
        total_windows += c.s.total_windows;
        const espread::obs::Histogram* ord =
            c.s.metrics.find_histogram("rlc_in_order_delay_ms");
        std::printf("%-8s | %6zu | %7.0f%% | %8.3f | %7lld | %9llu | %11.2f\n",
                    c.arm, c.window,
                    c.num > 0 ? 100.0 * static_cast<double>(c.num) /
                                    static_cast<double>(c.den)
                              : 0.0,
                    c.s.window_clf.mean(),
                    static_cast<long long>(c.s.clf_histogram.quantile(0.99)),
                    static_cast<unsigned long long>(
                        c.s.metrics.counter("rlc_packets_recovered")),
                    ord != nullptr ? ord->mean() : 0.0);
    }

    const double gf_mbps = gf_kernel_mbytes_per_second();
    const double wps =
        wall > 0.0 ? static_cast<double>(total_windows) / wall : 0.0;
    std::printf("\ngf256 multiply kernel: %.0f MB/s; sweep: %.0f windows/sec\n",
                gf_mbps, wps);

    // C1: at every overhead level (all cells run >= 5%), some rlc window
    // size beats identity on mean CLF.  The claim is per overhead, not per
    // cell: a wide window at low overhead is structurally under-provisioned
    // on this channel (repairs per span below its expected losses, so rank
    // rarely covers the deficit) and sits at par with identity — the sweep
    // reports those cells but the provisioning choice is the operator's.
    const double identity_clf = cells[0].s.window_clf.mean();
    const double spread_clf = cells[1].s.window_clf.mean();
    bool c1 = true;
    for (const auto& [num, den] : overheads) {
        double best = std::numeric_limits<double>::infinity();
        for (const Cell& c : cells) {
            if (std::strcmp(c.arm, "rlc") == 0 && c.num == num &&
                c.den == den) {
                best = std::min(best, c.s.window_clf.mean());
            }
        }
        if (best >= identity_clf) {
            c1 = false;
            std::fprintf(stderr,
                         "bench_fec: C1 FAIL no rlc window at %zu/%zu beats "
                         "identity %.3f (best %.3f)\n",
                         num, den, identity_clf, best);
        }
    }

    // C2: spreading composes with coding — the hybrid beats pure rlc in
    // at least one (window, overhead) cell.
    bool c2 = false;
    for (std::size_t i = 2; i + 1 < cells.size(); i += 2) {
        if (cells[i + 1].s.window_clf.mean() < cells[i].s.window_clf.mean()) {
            c2 = true;
        }
    }
    if (!c2) {
        std::fprintf(stderr,
                     "bench_fec: C2 FAIL hybrid never beat pure rlc\n");
    }

    // C3: the zero-overhead arms are untouched by the FEC build: a rerun
    // renders byte-identically and no rlc_* metric key leaks into them.
    bool c3 = true;
    for (std::size_t i = 0; i < 2; ++i) {
        const TrialSummary rerun = runner.run(cell_config(cells[i]));
        if (summary_render(rerun) != summary_render(cells[i].s)) {
            c3 = false;
            std::fprintf(stderr, "bench_fec: C3 FAIL %s rerun diverged\n",
                         cells[i].arm);
        }
        for (const auto& [name, value] : cells[i].s.metrics.counters()) {
            (void)value;
            if (name.rfind("rlc_", 0) == 0) {
                c3 = false;
                std::fprintf(stderr,
                             "bench_fec: C3 FAIL uncoded arm %s carries %s\n",
                             cells[i].arm, std::string(name).c_str());
            }
        }
    }

    std::printf("claims: C1 rlc<identity %s, C2 hybrid wins a cell %s, "
                "C3 uncoded bit-exact %s\n",
                c1 ? "PASS" : "FAIL", c2 ? "PASS" : "FAIL",
                c3 ? "PASS" : "FAIL");

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("fec");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("windows_per_second").value(wps);
    json.key("gf256_mul_mbytes_per_second").value(gf_mbps);
    json.key("identity_clf_mean").value(identity_clf);
    json.key("spread_clf_mean").value(spread_clf);
    json.key("claims").begin_object();
    json.key("rlc_beats_identity").value(c1);
    json.key("hybrid_beats_rlc_somewhere").value(c2);
    json.key("uncoded_bit_exact").value(c3);
    json.end_object();
    json.key("cells").begin_array();
    for (const Cell& c : cells) append_cell(json, c);
    json.end_array();
    json.end_object();
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    return (c1 && c2 && c3) ? EXIT_SUCCESS : EXIT_FAILURE;
}
