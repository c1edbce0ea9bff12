// Reproduces paper Table 2 (§4.4): IBO vs k-CPO ordering of 8 B frames.
//
// CMT prioritizes B frames in Inverse Binary Order; the paper replaces IBO
// with the k-CPO order and argues IBO degrades once a burst exceeds half
// the B frames while k-CPO holds the theorem bound.  We print both orders
// and their exact worst-case CLF for every burst length, then settle the
// protocol-level question the combinatorial table cannot: over many
// independent Gilbert realizations (--trials=N, --threads=T via the
// Monte-Carlo runner), does the k-CPO window ordering beat IBO end to end?
// Results are persisted to BENCH_table2.json.
//
// Exits 1 unless, at every b in 1..8, calculatePermutation(8, b) <= k-CPO
// <= IBO <= in-order with k-CPO below IBO at some b > 4, and end to end
// the mean CLF and the ALF of the two orders differ by no more than the
// larger per-trial deviation (the paper's protocol-level claim is a tie
// within noise; EXPERIMENTS.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/burst.hpp"
#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "protocol/session.hpp"

using espread::exp::JsonWriter;
using espread::exp::MonteCarloRunner;
using espread::exp::TrialSummary;
using espread::proto::Scheme;
using espread::proto::SessionConfig;

namespace {

SessionConfig session_config(Scheme scheme) {
    SessionConfig cfg;  // Fig. 8 defaults: Jurassic Park, 1.2 Mb/s, RTT 23 ms
    cfg.data_loss = {0.92, 0.6};
    cfg.feedback_loss = {0.92, 0.6};
    cfg.scheme = scheme;
    cfg.num_windows = 100;
    cfg.seed = 42;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = espread::exp::parse_runner_args(argc, argv);
    constexpr std::size_t kN = 8;

    const espread::Permutation in_order = espread::Permutation::identity(kN);
    const espread::Permutation ibo = espread::ibo_order(kN);
    const espread::Permutation cpo_fixed = espread::residue_class_order(kN, 3);

    std::printf("== Table 2: 8-frame orderings ==\n\n");
    std::printf("In order : %s\n", in_order.to_string_one_based().c_str());
    std::printf("IBO      : %s   (paper: 01 05 03 07 02 06 04 08)\n",
                ibo.to_string_one_based().c_str());
    std::printf("k-CPO    : %s   (paper: 01 04 07 02 05 08 03 06)\n\n",
                cpo_fixed.to_string_one_based().c_str());

    std::printf("worst-case CLF by burst length b (window n = %zu):\n\n", kN);
    std::printf(" b | in-order | IBO | k-CPO(fixed) | calculatePermutation(8,b)\n");
    std::printf("---+----------+-----+--------------+--------------------------\n");
    bool ok = true;
    bool cpo_beats_ibo_past_half = false;
    for (std::size_t b = 1; b <= kN; ++b) {
        const auto best = espread::calculate_permutation(kN, b);
        const std::size_t wc_in_order = espread::worst_case_clf(in_order, b);
        const std::size_t wc_ibo = espread::worst_case_clf(ibo, b);
        const std::size_t wc_cpo = espread::worst_case_clf(cpo_fixed, b);
        std::printf("%2zu | %8zu | %3zu | %12zu | %10zu (stride %zu)\n", b,
                    wc_in_order, wc_ibo, wc_cpo, best.clf, best.stride);
        if (!(best.clf <= wc_cpo && wc_cpo <= wc_ibo && wc_ibo <= wc_in_order)) {
            std::fprintf(stderr, "claim failed at b = %zu: expected "
                         "calculatePermutation %zu <= k-CPO %zu <= IBO %zu <= "
                         "in-order %zu\n", b, best.clf, wc_cpo, wc_ibo,
                         wc_in_order);
            ok = false;
        }
        if (b > kN / 2 && wc_cpo < wc_ibo) cpo_beats_ibo_past_half = true;
    }
    if (!cpo_beats_ibo_past_half) {
        std::fprintf(stderr, "claim failed: k-CPO is never below IBO at a "
                     "burst longer than %zu\n", kN / 2);
        ok = false;
    }
    std::printf(
        "\npaper's claim: IBO matches k-CPO while b <= half the frames, then\n"
        "degrades in the pathological region; k-CPO stays at the bound.\n");

    // ---- protocol-level IBO vs k-CPO over many channel realizations ----
    MonteCarloRunner runner(opts);
    std::printf(
        "\n== IBO vs k-CPO inside the full protocol "
        "(%zu trials x 100 windows, %zu threads) ==\n\n",
        runner.trials(), runner.threads());

    const TrialSummary s_ibo = runner.run(session_config(Scheme::kLayeredIbo));
    const TrialSummary s_cpo =
        runner.run(session_config(Scheme::kLayeredSpread));

    std::printf("            mean CLF  dev CLF   ALF     per-trial mean range\n");
    std::printf("IBO         %-9.2f %-8.2f %-7.3f [%.2f, %.2f]\n",
                s_ibo.window_clf.mean(), s_ibo.window_clf.deviation(),
                s_ibo.alf.mean(), s_ibo.clf_mean.min(), s_ibo.clf_mean.max());
    std::printf("k-CPO       %-9.2f %-8.2f %-7.3f [%.2f, %.2f]\n",
                s_cpo.window_clf.mean(), s_cpo.window_clf.deviation(),
                s_cpo.alf.mean(), s_cpo.clf_mean.min(), s_cpo.clf_mean.max());

    const double wall = s_ibo.wall_seconds + s_cpo.wall_seconds;
    const std::size_t windows = s_ibo.total_windows + s_cpo.total_windows;
    std::printf("\nthroughput: %zu windows in %.2f s = %.0f windows/sec\n",
                windows, wall, wall > 0 ? static_cast<double>(windows) / wall : 0.0);

    JsonWriter json;
    json.begin_object();
    json.key("bench").value("table2");
    json.key("trials").value(static_cast<std::uint64_t>(runner.trials()));
    json.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    json.key("wall_seconds").value(wall);
    json.key("windows_per_second")
        .value(wall > 0 ? static_cast<double>(windows) / wall : 0.0);
    json.key("ibo");
    espread::exp::append_summary(json, s_ibo);
    json.key("kcpo");
    espread::exp::append_summary(json, s_cpo);
    json.end_object();
    const std::string out =
        opts.out_path.empty() ? "BENCH_table2.json" : opts.out_path;
    espread::exp::write_text_file(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    if (!opts.trace_path.empty()) {
        espread::exp::write_session_trace(session_config(Scheme::kLayeredSpread),
                                          opts.trace_path);
        std::printf("wrote %s\n", opts.trace_path.c_str());
    }

    // End to end the two orders tie within noise: both gaps must stay
    // within the larger per-trial deviation.
    const double clf_gap =
        std::fabs(s_ibo.window_clf.mean() - s_cpo.window_clf.mean());
    const double clf_spread =
        std::max(s_ibo.clf_mean.deviation(), s_cpo.clf_mean.deviation());
    if (!(clf_gap <= clf_spread)) {
        std::fprintf(stderr, "claim failed: mean CLF differs by %.4f, more "
                     "than the per-trial deviation %.4f\n", clf_gap, clf_spread);
        ok = false;
    }
    const double alf_gap = std::fabs(s_ibo.alf.mean() - s_cpo.alf.mean());
    const double alf_spread =
        std::max(s_ibo.alf.deviation(), s_cpo.alf.deviation());
    if (!(alf_gap <= alf_spread)) {
        std::fprintf(stderr, "claim failed: ALF differs by %.4f, more than "
                     "the per-trial ALF deviation %.4f\n", alf_gap, alf_spread);
        ok = false;
    }
    return ok ? 0 : 1;
}
