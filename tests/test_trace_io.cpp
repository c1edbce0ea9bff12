#include "media/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "media/trace.hpp"

namespace {

using espread::media::FrameType;
using espread::media::infer_gop_pattern;
using espread::media::read_trace;
using espread::media::write_trace;

TEST(TraceIo, ParsesClassicFormat) {
    std::istringstream in{
        "# a comment\n"
        "0 I 50000\n"
        "1 B 9000\n"
        "2 B 8000\n"
        "3 P 20000\n"
        "\n"
        "4 I 52000   # trailing comment\n"
        "5 B 9500\n"};
    const auto frames = read_trace(in);
    ASSERT_EQ(frames.size(), 6u);
    EXPECT_EQ(frames[0].type, FrameType::kI);
    EXPECT_EQ(frames[0].size_bits, 50000u);
    EXPECT_EQ(frames[3].type, FrameType::kP);
    EXPECT_EQ(frames[3].gop, 0u);
    EXPECT_EQ(frames[4].gop, 1u);        // new GOP at the second I
    EXPECT_EQ(frames[4].pos_in_gop, 0u);
    EXPECT_EQ(frames[5].pos_in_gop, 1u);
    EXPECT_EQ(frames[5].index, 5u);
}

TEST(TraceIo, RoundTripsThroughWriter) {
    espread::media::TraceGenerator gen{espread::media::movie_stats("Terminator"), 4};
    const auto original = gen.generate(5);
    std::stringstream buffer;
    write_trace(buffer, original);
    const auto loaded = read_trace(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].type, original[i].type);
        EXPECT_EQ(loaded[i].size_bits, original[i].size_bits);
        EXPECT_EQ(loaded[i].gop, original[i].gop);
        EXPECT_EQ(loaded[i].pos_in_gop, original[i].pos_in_gop);
    }
}

TEST(TraceIo, RejectsMalformedLines) {
    {
        std::istringstream in{"0 I\n"};  // missing size
        EXPECT_THROW(read_trace(in), std::invalid_argument);
    }
    {
        std::istringstream in{"0 X 100\n"};  // bad type letter
        EXPECT_THROW(read_trace(in), std::invalid_argument);
    }
    {
        std::istringstream in{"0 IP 100\n"};  // multi-letter type
        EXPECT_THROW(read_trace(in), std::invalid_argument);
    }
    {
        std::istringstream in{"0 I 0\n"};  // non-positive size
        EXPECT_THROW(read_trace(in), std::invalid_argument);
    }
    {
        std::istringstream in{"0 I 100 junk\n"};  // trailing fields
        EXPECT_THROW(read_trace(in), std::invalid_argument);
    }
}

TEST(TraceIo, EmptyInputYieldsNoFrames) {
    std::istringstream in{"# only comments\n\n"};
    EXPECT_TRUE(read_trace(in).empty());
}

TEST(TraceIo, InferGopPatternFromRegularTrace) {
    std::istringstream in{
        "0 I 100\n1 B 10\n2 B 10\n3 P 50\n"
        "4 I 100\n5 B 10\n6 B 10\n7 P 50\n"
        "8 I 100\n9 B 10\n"};  // partial trailing GOP
    const auto frames = read_trace(in);
    const auto pattern = infer_gop_pattern(frames);
    EXPECT_EQ(pattern, espread::media::GopPattern::parse("IBBP"));
}

TEST(TraceIo, InferGopPatternRejectsIrregularTraces) {
    {
        std::istringstream in{"0 I 100\n1 B 10\n2 I 100\n3 P 50\n4 B 10\n"};
        const auto frames = read_trace(in);  // GOP1 longer than GOP0
        EXPECT_THROW(infer_gop_pattern(frames), std::invalid_argument);
    }
    {
        std::istringstream in{"0 I 100\n1 B 10\n2 P 10\n3 I 100\n4 P 10\n5 B 10\n"};
        const auto frames = read_trace(in);  // pattern flips B/P
        EXPECT_THROW(infer_gop_pattern(frames), std::invalid_argument);
    }
    {
        std::istringstream in{"0 B 10\n1 I 100\n"};
        const auto frames = read_trace(in);  // does not start with I
        EXPECT_THROW(infer_gop_pattern(frames), std::invalid_argument);
    }
    EXPECT_THROW(infer_gop_pattern({}), std::invalid_argument);
}

TEST(TraceIo, FileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/espread_trace_test.txt";
    espread::media::TraceGenerator gen{
        espread::media::movie_stats("Star Wars"), 9};
    const auto original = gen.generate(3);
    espread::media::write_trace_file(path, original);
    const auto loaded = espread::media::read_trace_file(path);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded[7].size_bits, original[7].size_bits);
    EXPECT_THROW(espread::media::read_trace_file("/nonexistent/trace.txt"),
                 std::runtime_error);
}

}  // namespace
