#include "media/trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using espread::media::audio_trace;
using espread::media::AudioLdu;
using espread::media::FrameType;
using espread::media::max_gop_bits;
using espread::media::mjpeg_trace;
using espread::media::movie_catalog;
using espread::media::movie_stats;
using espread::media::TraceGenerator;

TEST(MovieCatalog, ListsTheFivePaperTraces) {
    const auto& catalog = movie_catalog();
    ASSERT_EQ(catalog.size(), 5u);
    EXPECT_EQ(movie_stats("Star Wars").max_gop_bits, 932'710u);
    EXPECT_EQ(movie_stats("Silence of the Lambs").max_gop_bits, 462'056u);
    EXPECT_EQ(movie_stats("Terminator").max_gop_bits, 407'512u);
    EXPECT_EQ(movie_stats("Beauty and the Beast").max_gop_bits, 769'376u);
    EXPECT_EQ(movie_stats("Beauty and the Beast").gop_size, 15u);
    EXPECT_DOUBLE_EQ(movie_stats("Jurassic Park").fps, 24.0);
}

TEST(MovieCatalog, UnknownNameThrows) {
    EXPECT_THROW(movie_stats("Titanic"), std::invalid_argument);
}

TEST(TraceGenerator, ProducesPatternConformantFrames) {
    TraceGenerator gen{movie_stats("Jurassic Park"), 1};
    const auto frames = gen.generate(3);
    ASSERT_EQ(frames.size(), 36u);
    for (const auto& f : frames) {
        EXPECT_EQ(f.type, gen.pattern().type_at(f.pos_in_gop));
        EXPECT_GT(f.size_bits, 0u);
        EXPECT_EQ(f.index, f.gop * 12 + f.pos_in_gop);
    }
}

TEST(TraceGenerator, ContinuesAcrossCalls) {
    TraceGenerator gen{movie_stats("Jurassic Park"), 1};
    const auto a = gen.generate(2);
    const auto b = gen.generate(2);
    EXPECT_EQ(a.back().gop, 1u);
    EXPECT_EQ(b.front().gop, 2u);
    EXPECT_EQ(b.front().index, a.back().index + 1);
}

TEST(TraceGenerator, DeterministicPerSeed) {
    TraceGenerator g1{movie_stats("Star Wars"), 7};
    TraceGenerator g2{movie_stats("Star Wars"), 7};
    const auto a = g1.generate(5);
    const auto b = g2.generate(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].size_bits, b[i].size_bits);
    }
    TraceGenerator g3{movie_stats("Star Wars"), 8};
    const auto c = g3.generate(5);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_diff = any_diff || a[i].size_bits != c[i].size_bits;
    }
    EXPECT_TRUE(any_diff);
}

TEST(TraceGenerator, IFramesDominatePFramesDominateBFrames) {
    TraceGenerator gen{movie_stats("Jurassic Park"), 3};
    const auto frames = gen.generate(50);
    double i_sum = 0, p_sum = 0, b_sum = 0;
    std::size_t i_n = 0, p_n = 0, b_n = 0;
    for (const auto& f : frames) {
        const double bits = static_cast<double>(f.size_bits);
        switch (f.type) {
            case FrameType::kI: i_sum += bits; ++i_n; break;
            case FrameType::kP: p_sum += bits; ++p_n; break;
            case FrameType::kB:
            case FrameType::kIndependent: b_sum += bits; ++b_n; break;
        }
    }
    EXPECT_GT(i_sum / static_cast<double>(i_n), p_sum / static_cast<double>(p_n));
    EXPECT_GT(p_sum / static_cast<double>(p_n), b_sum / static_cast<double>(b_n));
}

TEST(TraceGenerator, MaxGopCalibratedToPublishedFigure) {
    for (const auto& movie : movie_catalog()) {
        TraceGenerator gen{movie, 11};
        const auto frames = gen.generate(100);
        const double observed = static_cast<double>(max_gop_bits(frames));
        const double target = static_cast<double>(movie.max_gop_bits);
        EXPECT_GT(observed, 0.6 * target) << movie.name;
        EXPECT_LT(observed, 1.5 * target) << movie.name;
    }
}

TEST(TraceGenerator, MeanBitrateIsPlausibleForPaperBandwidth) {
    // The paper streams Jurassic Park over a 1.2 Mb/s link; the calibrated
    // mean bitrate must sit below that with headroom for retransmissions.
    const auto& stats = movie_stats("Jurassic Park");
    TraceGenerator gen{stats, 1};
    const auto frames = gen.generate(200);
    double bits = 0.0;
    for (const auto& f : frames) bits += static_cast<double>(f.size_bits);
    const double bps = bits * stats.fps / static_cast<double>(frames.size());
    EXPECT_GT(bps, 3e5);
    EXPECT_LT(bps, 1.2e6);
}

TEST(MjpegTrace, IndependentConstantTypeFrames) {
    const auto frames = mjpeg_trace(20, 8000.0, 5);
    ASSERT_EQ(frames.size(), 20u);
    double sum = 0;
    for (const auto& f : frames) {
        EXPECT_EQ(f.type, FrameType::kIndependent);
        EXPECT_GT(f.size_bits, 0u);
        sum += static_cast<double>(f.size_bits);
    }
    EXPECT_NEAR(sum / 20.0, 8000.0, 2000.0);
}

TEST(MjpegTrace, RejectsNonPositiveMean) {
    EXPECT_THROW(mjpeg_trace(5, 0.0, 1), std::invalid_argument);
}

TEST(AudioTrace, ConstantBitRateLdus) {
    const auto ldus = audio_trace(10);
    ASSERT_EQ(ldus.size(), 10u);
    for (const auto& l : ldus) {
        EXPECT_EQ(l.size_bits, AudioLdu::kBitsPerLdu);
        EXPECT_EQ(l.type, FrameType::kIndependent);
    }
    EXPECT_EQ(AudioLdu::kBitsPerLdu, 2128u);
    // One LDU per video frame time: 8000 / 266 = 30.08 LDUs per second.
    EXPECT_EQ(AudioLdu::kSampleRateHz / AudioLdu::kSamplesPerLdu, 30u);
}

TEST(MaxGopBits, GroupsByGop) {
    std::vector<espread::media::Frame> frames(4);
    frames[0].gop = 0; frames[0].size_bits = 10;
    frames[1].gop = 0; frames[1].size_bits = 20;
    frames[2].gop = 1; frames[2].size_bits = 25;
    frames[3].gop = 1; frames[3].size_bits = 1;
    EXPECT_EQ(max_gop_bits(frames), 30u);
    EXPECT_EQ(max_gop_bits({}), 0u);
}

}  // namespace
