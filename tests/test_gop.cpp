#include "media/gop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using espread::media::FrameType;
using espread::media::GopPattern;

TEST(GopPattern, ParsesValidPattern) {
    const GopPattern g = GopPattern::parse("IBBPBB");
    EXPECT_EQ(g.size(), 6u);
    EXPECT_EQ(g.type_at(0), FrameType::kI);
    EXPECT_EQ(g.type_at(1), FrameType::kB);
    EXPECT_EQ(g.type_at(3), FrameType::kP);
    EXPECT_EQ(g.type_at(5), FrameType::kB);
}

TEST(GopPattern, CountsFrameClasses) {
    const GopPattern g = GopPattern::parse("IBBPBBPBBPBB");
    EXPECT_EQ(g.anchor_count(), 4u);
    EXPECT_EQ(g.p_count(), 3u);
    EXPECT_EQ(g.b_count(), 8u);
    EXPECT_EQ(g.anchor_positions(), (std::vector<std::size_t>{0, 3, 6, 9}));
}

TEST(GopPattern, ParseRejectsMalformedPatterns) {
    EXPECT_THROW(GopPattern::parse(""), std::invalid_argument);
    EXPECT_THROW(GopPattern::parse("BBI"), std::invalid_argument);
    EXPECT_THROW(GopPattern::parse("PBB"), std::invalid_argument);
    EXPECT_THROW(GopPattern::parse("IBBX"), std::invalid_argument);
    EXPECT_THROW(GopPattern::parse("IBBIPBB"), std::invalid_argument);
}

TEST(GopPattern, TypeAtRangeChecked) {
    const GopPattern g = GopPattern::parse("IBB");
    EXPECT_THROW(g.type_at(3), std::out_of_range);
}

TEST(GopPattern, StandardTwelveAndFifteen) {
    EXPECT_EQ(GopPattern::standard(12), GopPattern::parse("IBBPBBPBBPBB"));
    EXPECT_EQ(GopPattern::standard(15), GopPattern::parse("IBBPBBPBBPBBPBB"));
    EXPECT_EQ(GopPattern::standard(3), GopPattern::parse("IBB"));
    EXPECT_EQ(GopPattern::standard(1), GopPattern::parse("I"));
}

TEST(GopPattern, StandardRejectsOddSizes) {
    EXPECT_THROW(GopPattern::standard(0), std::invalid_argument);
    EXPECT_THROW(GopPattern::standard(4), std::invalid_argument);
    EXPECT_THROW(GopPattern::standard(14), std::invalid_argument);
}

TEST(GopPattern, Equality) {
    EXPECT_EQ(GopPattern::standard(12), GopPattern::parse("IBBPBBPBBPBB"));
    EXPECT_NE(GopPattern::standard(12), GopPattern::standard(15));
}

TEST(FrameTypeChar, AllTags) {
    EXPECT_EQ(espread::media::frame_type_char(FrameType::kI), 'I');
    EXPECT_EQ(espread::media::frame_type_char(FrameType::kP), 'P');
    EXPECT_EQ(espread::media::frame_type_char(FrameType::kB), 'B');
    EXPECT_EQ(espread::media::frame_type_char(FrameType::kIndependent), 'J');
}

}  // namespace
