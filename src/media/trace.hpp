// Synthetic MPEG frame-size traces (paper §4.1 and §5.1).
//
// The paper drives its evaluation with MPEG-1 traces (Jurassic Park for the
// experiments; four more movies for the buffer-requirement discussion) from
// a long-dead FTP server.  The protocol consumes only frame *types* and
// *sizes*, so we substitute a generator calibrated to the per-movie
// statistics the paper publishes — the maximum GOP size in bits — plus the
// standard MPEG-1 I:P:B size ratios.  Frame sizes are lognormal per type
// (the accepted model for VBR MPEG traces), scaled so the empirical maximum
// GOP of a generated clip lands near the published figure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "media/gop.hpp"
#include "media/ldu.hpp"
#include "sim/rng.hpp"

namespace espread::media {

/// Published statistics for one of the paper's five movie traces.
struct MovieStats {
    std::string name;
    std::size_t gop_size;      ///< frames per GOP (12 @ 24 fps, 15 @ 30 fps)
    double fps;                ///< display rate
    std::size_t max_gop_bits;  ///< paper §4.1 figure (see note for Jurassic Park)
};

/// The five traces the paper lists, with their published maximum GOP sizes.
/// NOTE: the OCR gives Jurassic Park as 62 776 bits, an order of magnitude
/// below the other four movies and below its own use in the experiments; we
/// treat it as a dropped digit and use 627 760 (flagged in EXPERIMENTS.md).
const std::vector<MovieStats>& movie_catalog();

/// Catalog lookup by name; throws std::invalid_argument if absent.
const MovieStats& movie_stats(const std::string& name);

/// Deterministic synthetic VBR MPEG trace.
class TraceGenerator {
public:
    /// `stats` selects the calibration target; `seed` fixes the trace.
    TraceGenerator(MovieStats stats, std::uint64_t seed);

    /// GOP pattern implied by stats.gop_size (standard two-B spacing).
    const GopPattern& pattern() const noexcept { return pattern_; }
    const MovieStats& stats() const noexcept { return stats_; }

    /// Generates `num_gops` GOPs of frames with types, GOP coordinates and
    /// sizes.  Repeated calls continue the same clip deterministically.
    std::vector<Frame> generate(std::size_t num_gops);

    /// generate() into a caller-owned buffer (cleared first): no
    /// allocation once `out` has reached capacity.  Same clip continuation
    /// semantics.
    void generate_into(std::size_t num_gops, std::vector<Frame>& out);

private:
    MovieStats stats_;
    GopPattern pattern_;
    sim::Rng rng_;
    /// Lognormal location parameter of each frame type's size, computed
    /// once from the type's mean size.
    double mu_i_;
    double mu_p_;
    double mu_b_;
    std::size_t next_gop_ = 0;
    std::size_t next_index_ = 0;
};

/// Dependency-free MJPEG-style trace: every frame independent, lognormal
/// sizes around `mean_frame_bits`.
std::vector<Frame> mjpeg_trace(std::size_t num_frames, double mean_frame_bits,
                               std::uint64_t seed);

/// Constant-bit-rate audio stream of `count` LDUs (266 samples each).
std::vector<Frame> audio_trace(std::size_t count);

/// Largest total GOP size (bits) in a frame sequence produced by
/// TraceGenerator::generate (groups by Frame::gop).
std::size_t max_gop_bits(const std::vector<Frame>& frames);

}  // namespace espread::media
