// Reproduces Figure 11 (referenced by §5.2, printed in TR99-005): CLF
// mean/deviation vs available bandwidth, scrambled vs un-scrambled.
//
// Setup per the surviving prose: buffer of 2 GOPs, P_bad = 0.6, bandwidth
// swept across the link capacities around the trace's ~0.9 Mb/s mean rate
// (the paper's exact endpoints are OCR-garbled; we sweep 0.6–2.4 Mb/s).
// Every cell runs over N independent Gilbert realizations (default 32,
// --trials=N) through the Monte-Carlo runner (--threads=T) and persists
// BENCH_fig11.json.
//
// Exits 1 unless, at every bandwidth, the un-scrambled mean CLF minus the
// scrambled mean CLF exceeds 3 standard errors of that difference (taken
// over the per-trial means).  The paper also claims a lower deviation at
// every bandwidth; that clause is printed, not gated: at 0.6 Mb/s the
// layered scheme sheds B frames every window, and the scrambled deviation
// comes out above the un-scrambled one (EXPERIMENTS.md, Fig. 11).  The
// paper notes the scrambled scheme "often keeps CLF at or below 2", the
// perceptual threshold; the last column counts those windows.
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

SessionConfig fig11_config(double bw, Scheme scheme) {
    SessionConfig cfg;
    cfg.scheme = scheme;
    cfg.data_link.bandwidth_bps = bw;
    cfg.feedback_link.bandwidth_bps = bw;
    cfg.data_loss = {0.92, 0.6};
    cfg.feedback_loss = {0.92, 0.6};
    cfg.num_windows = 100;
    cfg.seed = 42;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = espread::exp::parse_runner_args(argc, argv);
    MonteCarloRunner runner(opts);

    std::printf("== Figure 11: CLF vs available bandwidth (P_bad = 0.6, W = 2) ==\n");
    std::printf("   (%zu trials x 100 windows per cell, %zu threads)\n\n",
                runner.trials(), runner.threads());
    std::printf("BW (Mb/s) | unscrambled mean/dev | scrambled mean/dev |  gap z  | scr. windows CLF<=2\n");
    std::printf("----------+----------------------+--------------------+---------+--------------------\n");

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("fig11_bandwidth");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    json.key("cells").begin_array();

    bool ok = true;
    double wall = 0.0;
    std::size_t windows = 0;
    for (const double bw :
         {0.6e6, 0.8e6, 1.0e6, 1.2e6, 1.4e6, 1.6e6, 2.0e6, 2.4e6}) {
        const TrialSummary plain = runner.run(fig11_config(bw, Scheme::kInOrder));
        const TrialSummary spread =
            runner.run(fig11_config(bw, Scheme::kLayeredSpread));
        wall += plain.wall_seconds + spread.wall_seconds;
        windows += plain.total_windows + spread.total_windows;
        const double z = espread::exp::clf_gap_standard_errors(plain, spread);
        const bool dev_inverted =
            spread.window_clf.deviation() > plain.window_clf.deviation();
        std::printf("   %5.2f  |     %5.2f / %-5.2f     |    %5.2f / %-5.2f%s |  %6.1f | %10llu / %llu\n",
                    bw / 1e6, plain.window_clf.mean(),
                    plain.window_clf.deviation(), spread.window_clf.mean(),
                    spread.window_clf.deviation(), dev_inverted ? "*" : " ", z,
                    static_cast<unsigned long long>(spread.clf_histogram.count_le(2)),
                    static_cast<unsigned long long>(spread.clf_histogram.total()));
        if (!(z > 3.0)) {
            std::fprintf(stderr, "claim failed at BW = %.2f Mb/s: un-scrambled "
                         "minus scrambled mean CLF is %.1f standard errors, "
                         "not above 3\n", bw / 1e6, z);
            ok = false;
        }
        json.begin_object();
        json.key("bandwidth_bps").value(bw);
        json.key("gap_z").value(z);
        json.key("unscrambled");
        espread::exp::append_summary(json, plain);
        json.key("scrambled");
        espread::exp::append_summary(json, spread);
        json.end_object();
    }
    json.end_array();
    json.key("wall_seconds").value(wall);
    json.key("windows_per_second")
        .value(wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    json.end_object();

    std::printf(
        "\n* scrambled deviation above un-scrambled (not gated; at starvation\n"
        "  bandwidth the layered scheme sheds B frames in every window).\n"
        "claim (gated): scrambling lowers mean CLF by more than 3 standard\n"
        "errors at every bandwidth.\n");
    std::printf("\nthroughput: %zu windows in %.2f s = %.0f windows/sec\n",
                windows, wall, wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    const std::string out =
        opts.out_path.empty() ? "BENCH_fig11.json" : opts.out_path;
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());
    if (!opts.trace_path.empty()) {
        // One traced realization of the scrambled 1.2 Mb/s cell.
        espread::exp::write_session_trace(
            fig11_config(1.2e6, Scheme::kLayeredSpread), opts.trace_path);
        std::printf("wrote %s\n", opts.trace_path.c_str());
    }
    return ok ? 0 : 1;
}
