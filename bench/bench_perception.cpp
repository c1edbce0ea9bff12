// Perception-driven scoreboard: the user study the paper builds on places
// the annoyance threshold at 2 consecutive lost frames for video and 3
// LDUs for audio.  This bench scores each scheme by the fraction of buffer
// windows that stay within threshold — the quantity a viewer actually
// experiences — across the burstiness sweep.
#include <cstdio>

#include "exp/flags.hpp"
#include "media/ldu.hpp"
#include "protocol/session.hpp"

using espread::media::kAudioClfThreshold;
using espread::media::kVideoClfThreshold;
using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::StreamKind;

namespace {

double within_threshold(const espread::proto::SessionResult& r, std::size_t k) {
    std::size_t good = 0;
    for (const auto& w : r.windows) {
        if (w.clf <= k) ++good;
    }
    return 100.0 * static_cast<double>(good) /
           static_cast<double>(r.windows.size());
}

}  // namespace

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    std::printf("== perception scoreboard: %% of windows within the annoyance threshold ==\n\n");

    std::printf("MPEG video (threshold CLF <= %zu), 100 windows each:\n", kVideoClfThreshold);
    std::printf(" P_bad | in-order | layered | layered+IBO | layered+CPO\n");
    std::printf("-------+----------+---------+-------------+------------\n");
    for (const double pbad : {0.4, 0.5, 0.6, 0.7, 0.8}) {
        std::printf("  %.1f  |", pbad);
        for (const Scheme scheme :
             {Scheme::kInOrder, Scheme::kLayeredNoScramble, Scheme::kLayeredIbo,
              Scheme::kLayeredSpread}) {
            SessionConfig cfg;
            cfg.scheme = scheme;
            cfg.data_loss = {0.92, pbad};
            cfg.feedback_loss = {0.92, pbad};
            cfg.num_windows = 100;
            cfg.seed = 42;
            std::printf("   %5.1f%% |", within_threshold(run_session(cfg),
                                                         kVideoClfThreshold));
        }
        std::printf("\n");
    }

    std::printf("\naudio (threshold CLF <= %zu), 8-LDU windows, narrowband link:\n",
                kAudioClfThreshold);
    std::printf(" P_bad | in-order | spread\n");
    std::printf("-------+----------+-------\n");
    for (const double pbad : {0.4, 0.6, 0.8}) {
        std::printf("  %.1f  |", pbad);
        for (const Scheme scheme : {Scheme::kInOrder, Scheme::kLayeredSpread}) {
            SessionConfig cfg;
            cfg.stream.kind = StreamKind::kAudio;
            cfg.stream.ldus_per_window = 8;
            cfg.stream.frame_rate = espread::media::AudioLdu::ldu_rate();
            cfg.packet_bits = espread::media::AudioLdu::kBitsPerLdu;
            cfg.data_link.bandwidth_bps = 128e3;
            cfg.feedback_link.bandwidth_bps = 128e3;
            cfg.scheme = scheme;
            cfg.data_loss = {0.92, pbad};
            cfg.feedback_loss = {0.92, pbad};
            cfg.num_windows = 200;
            cfg.seed = 42;
            std::printf("   %5.1f%% |", within_threshold(run_session(cfg),
                                                         kAudioClfThreshold));
        }
        std::printf("\n");
    }

    std::printf(
        "\nexpected shape: every ordering improvement (layering, then\n"
        "scrambling) buys viewers more within-threshold windows, with the\n"
        "gap widening as the network gets burstier — until losses are so\n"
        "heavy that no ordering can save the window.\n");
    return 0;
}
