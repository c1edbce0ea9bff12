#include "media/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace espread::media {

namespace {

/// Per-frame lognormal shape parameter for VBR size variation.
constexpr double kSigma = 0.25;

/// Ratio between a clip's maximum GOP size and its mean GOP size used for
/// calibration (empirically ~1.4 for sums of ~12 lognormal frames observed
/// over ~100 GOPs).
constexpr double kPeakToMean = 1.4;

/// Typical MPEG-1 per-frame size ratio I : P : B.
constexpr double kIWeight = 5.0;
constexpr double kPWeight = 2.0;
constexpr double kBWeight = 1.0;

double lognormal_mu(double mean) {
    return std::log(mean) - kSigma * kSigma / 2.0;
}

}  // namespace

const std::vector<MovieStats>& movie_catalog() {
    static const std::vector<MovieStats> catalog{
        {"Jurassic Park", 12, 24.0, 627'760},  // OCR 62'776; see header note
        {"Silence of the Lambs", 12, 24.0, 462'056},
        {"Star Wars", 12, 24.0, 932'710},
        {"Terminator", 12, 24.0, 407'512},
        {"Beauty and the Beast", 15, 30.0, 769'376},
    };
    return catalog;
}

const MovieStats& movie_stats(const std::string& name) {
    for (const MovieStats& m : movie_catalog()) {
        if (m.name == name) return m;
    }
    throw std::invalid_argument("movie_stats: unknown movie \"" + name + "\"");
}

TraceGenerator::TraceGenerator(MovieStats stats, std::uint64_t seed)
    : stats_(std::move(stats)),
      pattern_(GopPattern::standard(stats_.gop_size)),
      rng_(seed) {
    const double mean_gop =
        static_cast<double>(stats_.max_gop_bits) / kPeakToMean;
    const double units = kIWeight +
                         kPWeight * static_cast<double>(pattern_.p_count()) +
                         kBWeight * static_cast<double>(pattern_.b_count());
    const double unit = mean_gop / units;
    mu_i_ = lognormal_mu(kIWeight * unit);
    mu_p_ = lognormal_mu(kPWeight * unit);
    mu_b_ = lognormal_mu(kBWeight * unit);
}

std::vector<Frame> TraceGenerator::generate(std::size_t num_gops) {
    std::vector<Frame> frames;
    generate_into(num_gops, frames);
    return frames;
}

void TraceGenerator::generate_into(std::size_t num_gops,
                                   std::vector<Frame>& out) {
    out.clear();
    out.reserve(num_gops * pattern_.size());
    for (std::size_t g = 0; g < num_gops; ++g) {
        for (std::size_t p = 0; p < pattern_.size(); ++p) {
            Frame f;
            f.index = next_index_++;
            f.gop = next_gop_;
            f.pos_in_gop = p;
            f.type = pattern_.type_at(p);
            double mu = mu_b_;
            if (f.type == FrameType::kI) mu = mu_i_;
            if (f.type == FrameType::kP) mu = mu_p_;
            const double bits = rng_.lognormal(mu, kSigma);
            f.size_bits = static_cast<std::size_t>(std::max(1.0, bits));
            out.push_back(f);
        }
        ++next_gop_;
    }
}

std::vector<Frame> mjpeg_trace(std::size_t num_frames, double mean_frame_bits,
                               std::uint64_t seed) {
    if (mean_frame_bits <= 0.0) {
        throw std::invalid_argument("mjpeg_trace: mean size must be positive");
    }
    sim::Rng rng{seed};
    const double mu = lognormal_mu(mean_frame_bits);
    std::vector<Frame> frames;
    frames.reserve(num_frames);
    for (std::size_t i = 0; i < num_frames; ++i) {
        Frame f;
        f.index = i;
        f.type = FrameType::kIndependent;
        f.size_bits = static_cast<std::size_t>(
            std::max(1.0, rng.lognormal(mu, kSigma)));
        frames.push_back(f);
    }
    return frames;
}

std::vector<Frame> audio_trace(std::size_t count) {
    std::vector<Frame> ldus;
    ldus.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Frame f;
        f.index = i;
        f.type = FrameType::kIndependent;
        f.size_bits = AudioLdu::kBitsPerLdu;
        ldus.push_back(f);
    }
    return ldus;
}

std::size_t max_gop_bits(const std::vector<Frame>& frames) {
    std::map<std::size_t, std::size_t> totals;
    for (const Frame& f : frames) totals[f.gop] += f.size_bits;
    std::size_t best = 0;
    for (const auto& [gop, bits] : totals) best = std::max(best, bits);
    return best;
}

}  // namespace espread::media
