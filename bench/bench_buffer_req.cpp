// Reproduces the §4.1 buffer-requirement numbers for the five movie traces
// the paper lists, and checks the synthetic trace generator's calibration
// against the published maximum GOP sizes.
#include <cstdio>

#include "exp/flags.hpp"
#include "media/trace.hpp"
#include "protocol/buffer_req.hpp"

using espread::media::movie_catalog;
using espread::media::TraceGenerator;
using espread::proto::buffer_requirement;

int main(int argc, char** argv) {
    espread::exp::parse_flags_or_exit(argc, argv, {});
    std::printf("== §4.1: buffer requirements per movie (N = W * maxGOP) ==\n\n");
    std::printf("%-22s | GOP | fps | maxGOP (bits) | W=2 buffer | startup | synth maxGOP (100 GOPs)\n",
                "movie");
    std::printf("-----------------------+-----+-----+---------------+------------+---------+------------------------\n");
    for (const auto& movie : movie_catalog()) {
        const auto req = buffer_requirement(movie, 2);
        TraceGenerator gen{movie, 11};
        const auto frames = gen.generate(100);
        const std::size_t synth = espread::media::max_gop_bits(frames);
        std::printf("%-22s | %3zu | %3.0f | %13zu | %7zu KB | %5.2f s | %zu (%.0f%% of published)\n",
                    movie.name.c_str(), movie.gop_size, movie.fps,
                    movie.max_gop_bits, req.bytes / 1024, req.startup_delay_s,
                    synth, 100.0 * static_cast<double>(synth) /
                               static_cast<double>(movie.max_gop_bits));
    }
    std::printf(
        "\npaper's example: Star Wars' 932710-bit max GOP is ~113 KB, so a\n"
        "W-GOP buffer costs W * 113 KB — \"quite viable\".  (Jurassic Park's\n"
        "published 62776 bits is treated as an OCR-dropped digit: 627760.)\n");
    return 0;
}
