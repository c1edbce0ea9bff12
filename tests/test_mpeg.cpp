#include "media/mpeg.hpp"

#include <gtest/gtest.h>

namespace {

using espread::media::build_dependency_poset;
using espread::media::GopBoundary;
using espread::media::GopPattern;
using espread::poset::Poset;

TEST(DependencyPoset, PFramesChainOffAnchors) {
    // IBBPBB: P(3) depends on I(0); B(1),B(2) on I(0) and P(3).
    const Poset p = build_dependency_poset(GopPattern::parse("IBBPBB"), 1);
    EXPECT_TRUE(p.depends_on(3, 0));
    EXPECT_TRUE(p.depends_on(1, 0));
    EXPECT_TRUE(p.depends_on(1, 3));
    EXPECT_TRUE(p.depends_on(2, 3));
    // Trailing Bs (4, 5) have no forward anchor in a single-GOP window.
    EXPECT_TRUE(p.depends_on(4, 3));
    EXPECT_EQ(p.direct_prerequisites(4), (std::vector<std::size_t>{3}));
}

TEST(DependencyPoset, MultiPFramesChainTransitively) {
    // IBBPBBPBB: P(6) depends on P(3) depends on I(0).
    const Poset p = build_dependency_poset(GopPattern::parse("IBBPBBPBB"), 1);
    EXPECT_EQ(p.direct_prerequisites(6), (std::vector<std::size_t>{3}));
    EXPECT_TRUE(p.depends_on(6, 0));
    EXPECT_EQ(p.longest_chain_length(), 4u);  // I < P1 < P2 < B
}

TEST(DependencyPoset, OpenGopCrossesBoundary) {
    // Two GOPs of IBBP: trailing Bs?  Pattern IBBP has no trailing B; use
    // IPBB so positions 2,3 trail the last anchor P(1).
    const GopPattern g = GopPattern::parse("IPBB");
    const Poset open = build_dependency_poset(g, 2, GopBoundary::kOpen);
    // Trailing B(2) of GOP 0 depends on next GOP's I (index 4).
    EXPECT_TRUE(open.depends_on(2, 4));
    EXPECT_TRUE(open.depends_on(3, 4));
    // Final GOP's trailing Bs have no successor GOP.
    EXPECT_EQ(open.direct_prerequisites(6), (std::vector<std::size_t>{5}));

    const Poset closed = build_dependency_poset(g, 2, GopBoundary::kClosed);
    EXPECT_FALSE(closed.depends_on(2, 4));
    EXPECT_FALSE(closed.depends_on(3, 4));
}

TEST(DependencyPoset, AnchorsAreExactlyIAndP) {
    const GopPattern g = GopPattern::standard(12);
    const Poset p = build_dependency_poset(g, 2);
    const auto anchors = p.anchors();
    // IBBPBBPBBPBB: I and P at positions 0, 3, 6, 9 of each GOP.
    EXPECT_EQ(anchors, (std::vector<std::size_t>{0, 3, 6, 9, 12, 15, 18, 21}));
}

TEST(DependencyPoset, LayeringMatchesFigure3) {
    // W = 2 GOPs of GOP-12: layers I, P1, P2, P3, then all 16 B frames.
    const GopPattern g = GopPattern::standard(12);
    const Poset p = build_dependency_poset(g, 2);
    const auto layers = espread::poset::layer_members(p);
    ASSERT_EQ(layers.size(), 5u);
    EXPECT_EQ(layers[0], (std::vector<std::size_t>{0, 12}));    // I frames
    EXPECT_EQ(layers[1], (std::vector<std::size_t>{3, 15}));    // first P
    EXPECT_EQ(layers[2], (std::vector<std::size_t>{6, 18}));    // second P
    EXPECT_EQ(layers[3], (std::vector<std::size_t>{9, 21}));    // third P
    EXPECT_EQ(layers[4].size(), 16u);                           // all B frames
}

TEST(DependencyPoset, LinearExtensionSendsAnchorsBeforeDependents) {
    const GopPattern g = GopPattern::standard(12);
    const Poset p = build_dependency_poset(g, 2);
    // Layers concatenated, anchors by height first: whatever order each
    // layer is sent in, no frame precedes a frame it depends on.
    std::vector<std::size_t> order;
    for (const auto& layer : espread::poset::layer_members(p)) {
        order.insert(order.end(), layer.rbegin(), layer.rend());
    }
    EXPECT_TRUE(p.is_linear_extension(order));
}

TEST(DependencyPoset, SingleFrameGop) {
    // GOP "I": all frames independent anchors?  No frame depends on any
    // other, so there are no anchors at all and one non-critical layer.
    const Poset p = build_dependency_poset(GopPattern::parse("I"), 3);
    EXPECT_TRUE(p.anchors().empty());
    EXPECT_EQ(espread::poset::layer_members(p).size(), 1u);
}

}  // namespace
