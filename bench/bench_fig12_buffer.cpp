// Reproduces Figure 12 (referenced by §5.2, printed in TR99-005): CLF vs
// the number of GOPs W in the server's buffer.
//
// Setup per the surviving prose: P_bad = 0.6, BW 1.2 Mb/s; the paper uses
// two buffer sizes whose start-up delays (W * GOP / fps) are about one and
// a few seconds; we sweep W in {1, 2, 4, 8}.  Every cell runs over N
// independent Gilbert realizations (default 32, --trials=N) through the
// Monte-Carlo runner (--threads=T) and persists BENCH_fig12.json.
//
// Exits 1 unless, at every W, the un-scrambled mean CLF minus the
// scrambled mean CLF exceeds 3 standard errors of that difference (taken
// over the per-trial means) — the "error spreading scales well" claim.
// The paper also claims a lower deviation at every W; that clause is
// printed, not gated: at W >= 4 the un-scrambled window's longest loss run
// saturates near CLF 2, so its deviation collapses below the scrambled one
// (EXPERIMENTS.md, Fig. 12).
#include <cstdio>
#include <string>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/buffer_req.hpp"
#include "protocol/session.hpp"

using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::TrialSummary;
using espread::proto::buffer_requirement;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

SessionConfig fig12_config(std::size_t w, Scheme scheme) {
    SessionConfig cfg;
    cfg.scheme = scheme;
    cfg.gops_per_window = w;
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

    std::printf("== Figure 12: CLF vs buffer size W (P_bad = 0.6, BW 1.2 Mb/s) ==\n");
    std::printf("   (%zu trials x 100 windows per cell, %zu threads)\n\n",
                runner.trials(), runner.threads());
    std::printf(" W | startup | unscrambled mean/dev | scrambled mean/dev |  gap z\n");
    std::printf("---+---------+----------------------+--------------------+--------\n");

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("fig12_buffer");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    json.key("cells").begin_array();

    bool ok = true;
    double wall = 0.0;
    std::size_t windows = 0;
    for (const std::size_t w : {1u, 2u, 4u, 8u}) {
        const TrialSummary plain = runner.run(fig12_config(w, Scheme::kInOrder));
        const TrialSummary spread =
            runner.run(fig12_config(w, Scheme::kLayeredSpread));
        wall += plain.wall_seconds + spread.wall_seconds;
        windows += plain.total_windows + spread.total_windows;
        const double z = espread::exp::clf_gap_standard_errors(plain, spread);
        const bool dev_inverted =
            spread.window_clf.deviation() > plain.window_clf.deviation();
        const auto req = buffer_requirement(
            espread::media::movie_stats("Jurassic Park"), w);
        std::printf("%2zu | %5.2f s |     %5.2f / %-5.2f     |    %5.2f / %-5.2f%s | %6.1f\n",
                    w, req.startup_delay_s, plain.window_clf.mean(),
                    plain.window_clf.deviation(), spread.window_clf.mean(),
                    spread.window_clf.deviation(), dev_inverted ? "*" : " ", z);
        if (!(z > 3.0)) {
            std::fprintf(stderr, "claim failed at W = %zu: un-scrambled minus "
                         "scrambled mean CLF is %.1f standard errors, not "
                         "above 3\n", w, z);
            ok = false;
        }
        json.begin_object();
        json.key("gops_per_window").value(static_cast<std::uint64_t>(w));
        json.key("startup_delay_s").value(req.startup_delay_s);
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
        "\n* scrambled deviation above un-scrambled (not gated; the in-order\n"
        "  deviation collapses once its CLF saturates at large W).\n"
        "claim (gated): scrambling lowers mean CLF by more than 3 standard\n"
        "errors at every buffer size.\n");
    std::printf("\nthroughput: %zu windows in %.2f s = %.0f windows/sec\n",
                windows, wall, wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    const std::string out =
        opts.out_path.empty() ? "BENCH_fig12.json" : opts.out_path;
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());
    if (!opts.trace_path.empty()) {
        // One traced realization of the scrambled W = 2 cell.
        espread::exp::write_session_trace(
            fig12_config(2, Scheme::kLayeredSpread), opts.trace_path);
        std::printf("wrote %s\n", opts.trace_path.c_str());
    }
    return ok ? 0 : 1;
}
