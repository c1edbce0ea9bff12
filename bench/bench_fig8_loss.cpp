// Reproduces paper Figure 8: impact of network loss on per-window CLF.
//
// Setup (from the figure captions): Jurassic Park trace, RTT 23 ms,
// BW 1.2 Mb/s, GOP 12, W = 2 GOPs, packet 16384 bits, P_good = 0.92,
// P_bad in {0.6, 0.7}; 100 buffer windows; scrambled (layered k-CPO) vs
// un-scrambled (MPEG coding order) transmission.
//
// The paper's numbers are single-channel-realization estimates; this bench
// runs every panel over N independent Gilbert realizations (default 32,
// --trials=N) through the parallel Monte-Carlo runner (--threads=T) and
// reports the mean and spread across trials, plus a machine-readable
// BENCH_fig8.json for perf tracking across changes.  The bench exits non-zero
// unless, at both P_bad values, the scrambled arm has lower mean and lower
// deviation of per-window CLF than the unscrambled one, with the two ALF
// means within the larger per-trial ALF deviation of each other.
//
// Paper reference numbers (their single realization):
//   P_bad = 0.6: un-scrambled mean 1.71 dev 0.92; scrambled mean 1.46 dev 0.56
//   P_bad = 0.7: un-scrambled mean 1.63 dev 0.85; scrambled mean 1.56 dev 0.79
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/session.hpp"

using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::TrialSummary;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

SessionConfig fig8_config(double p_bad, Scheme scheme, std::uint64_t seed) {
    SessionConfig cfg;  // defaults already match the paper's setup
    cfg.data_loss = {0.92, p_bad};
    cfg.feedback_loss = {0.92, p_bad};
    cfg.scheme = scheme;
    cfg.num_windows = 100;
    cfg.seed = seed;
    return cfg;
}

struct Panel {
    double p_bad;
    TrialSummary plain;
    TrialSummary spread;
};

void print_panel(const Panel& p, double paper_plain_mean,
                 double paper_plain_dev, double paper_spread_mean,
                 double paper_spread_dev) {
    std::printf("---- P_bad = %.1f (RTT 23 ms, BW 1.2 Mb/s, W = 2, GOP 12, pkt 16384) ----\n\n",
                p.p_bad);
    std::printf("            %-24s %-24s per-trial mean CLF range\n",
                "mean CLF (paper)", "dev CLF (paper)");
    std::printf("unscrambled %-6.2f (%.2f)%12s %-6.2f (%.2f)%12s [%.2f, %.2f]\n",
                p.plain.window_clf.mean(), paper_plain_mean, "",
                p.plain.window_clf.deviation(), paper_plain_dev, "",
                p.plain.clf_mean.min(), p.plain.clf_mean.max());
    std::printf("scrambled   %-6.2f (%.2f)%12s %-6.2f (%.2f)%12s [%.2f, %.2f]\n",
                p.spread.window_clf.mean(), paper_spread_mean, "",
                p.spread.window_clf.deviation(), paper_spread_dev, "",
                p.spread.clf_mean.min(), p.spread.clf_mean.max());
    std::printf("aggregate loss (ALF): unscrambled %.3f +/- %.3f, "
                "scrambled %.3f +/- %.3f (bandwidth-neutral: ~equal)\n\n",
                p.plain.alf.mean(), p.plain.alf.deviation(),
                p.spread.alf.mean(), p.spread.alf.deviation());
}

/// The paper's claim for one panel: scrambling lowers both the mean and
/// the deviation of per-window CLF, and leaves aggregate loss unchanged to
/// within the per-trial ALF spread.  Prints the broken clause to stderr.
bool claim_holds(const Panel& p) {
    const double alf_gap = std::fabs(p.plain.alf.mean() - p.spread.alf.mean());
    const double alf_spread =
        std::max(p.plain.alf.deviation(), p.spread.alf.deviation());
    bool ok = true;
    if (!(p.spread.window_clf.mean() < p.plain.window_clf.mean())) {
        std::fprintf(stderr, "claim failed at P_bad = %.1f: scrambled mean CLF "
                     "%.3f is not below unscrambled %.3f\n", p.p_bad,
                     p.spread.window_clf.mean(), p.plain.window_clf.mean());
        ok = false;
    }
    if (!(p.spread.window_clf.deviation() < p.plain.window_clf.deviation())) {
        std::fprintf(stderr, "claim failed at P_bad = %.1f: scrambled CLF "
                     "deviation %.3f is not below unscrambled %.3f\n", p.p_bad,
                     p.spread.window_clf.deviation(),
                     p.plain.window_clf.deviation());
        ok = false;
    }
    if (!(alf_gap <= alf_spread)) {
        std::fprintf(stderr, "claim failed at P_bad = %.1f: ALF differs by "
                     "%.4f, more than the per-trial ALF deviation %.4f\n",
                     p.p_bad, alf_gap, alf_spread);
        ok = false;
    }
    return ok;
}

void append_panel(JsonWriter& json, const Panel& p) {
    json.begin_object();
    json.key("p_bad").value(p.p_bad);
    json.key("unscrambled");
    espread::exp::append_summary(json, p.plain);
    json.key("scrambled");
    espread::exp::append_summary(json, p.spread);
    json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = espread::exp::parse_runner_args(argc, argv);
    MonteCarloRunner runner(opts);
    constexpr std::uint64_t kSeed = 42;

    std::printf("== Figure 8: CLF per buffer window under bursty network loss ==\n");
    std::printf("   (%zu trials x 100 windows per cell, %zu threads)\n\n",
                runner.trials(), runner.threads());

    Panel panels[2];
    double wall = 0.0;
    std::size_t windows = 0;
    for (int i = 0; i < 2; ++i) {
        const double p_bad = i == 0 ? 0.6 : 0.7;
        panels[i].p_bad = p_bad;
        panels[i].plain =
            runner.run(fig8_config(p_bad, Scheme::kInOrder, kSeed));
        panels[i].spread =
            runner.run(fig8_config(p_bad, Scheme::kLayeredSpread, kSeed));
        wall += panels[i].plain.wall_seconds + panels[i].spread.wall_seconds;
        windows +=
            panels[i].plain.total_windows + panels[i].spread.total_windows;
    }

    print_panel(panels[0], 1.71, 0.92, 1.46, 0.56);
    print_panel(panels[1], 1.63, 0.85, 1.56, 0.79);

    std::printf(
        "shape check (paper's claim): scrambling lowers BOTH the mean and the\n"
        "deviation of per-window CLF, holding aggregate loss unchanged.\n");
    std::printf("\nthroughput: %zu windows in %.2f s = %.0f windows/sec\n",
                windows, wall, wall > 0 ? static_cast<double>(windows) / wall : 0.0);

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("fig8_loss");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    json.key("wall_seconds").value(wall);
    json.key("windows_per_second")
        .value(wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    json.key("panels").begin_array();
    append_panel(json, panels[0]);
    append_panel(json, panels[1]);
    json.end_array();
    json.end_object();
    const std::string out =
        opts.out_path.empty() ? "BENCH_fig8.json" : opts.out_path;
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    if (!opts.trace_path.empty()) {
        // One traced realization of the scrambled P_bad = 0.6 cell (trial
        // 0's seed), for loading into Perfetto / chrome://tracing.
        espread::exp::write_session_trace(
            fig8_config(0.6, Scheme::kLayeredSpread, kSeed), opts.trace_path);
        std::printf("wrote %s\n", opts.trace_path.c_str());
    }
    // Claim gate: non-zero exit unless the shape check above holds at
    // both P_bad values (both are checked, so every broken clause prints).
    const bool low_ok = claim_holds(panels[0]);
    const bool high_ok = claim_holds(panels[1]);
    return low_ok && high_ok ? 0 : 1;
}
