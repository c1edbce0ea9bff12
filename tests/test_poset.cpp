#include "poset/poset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace {

using espread::poset::Element;
using espread::poset::layer_members;
using espread::poset::Poset;

// A two-GOP MPEG-like fixture with pattern I B P B (open-ended):
//   0:I0  1:B0 (needs I0, P0)  2:P0 (needs I0)  3:B1 (needs P0, I1)
//   4:I1  5:B2 (needs I1, P1)  6:P1 (needs I1)
Poset mpeg_like() {
    Poset p{7};
    p.add_dependency(1, 0);
    p.add_dependency(1, 2);
    p.add_dependency(2, 0);
    p.add_dependency(3, 2);
    p.add_dependency(3, 4);
    p.add_dependency(5, 4);
    p.add_dependency(5, 6);
    p.add_dependency(6, 4);
    return p;
}

TEST(Poset, EmptyAndAntichain) {
    const Poset empty{0};
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.longest_chain_length(), 0u);
    EXPECT_TRUE(empty.linear_extension().empty());

    const Poset flat{4};
    EXPECT_EQ(flat.longest_chain_length(), 1u);
    EXPECT_TRUE(flat.is_antichain({0, 1, 2, 3}));
    EXPECT_TRUE(flat.anchors().empty());
}

TEST(Poset, RejectsSelfDependencyAndRange) {
    Poset p{3};
    EXPECT_THROW(p.add_dependency(1, 1), std::invalid_argument);
    EXPECT_THROW(p.add_dependency(3, 0), std::out_of_range);
    EXPECT_THROW(p.add_dependency(0, 5), std::out_of_range);
}

TEST(Poset, DetectsCycles) {
    Poset p{3};
    p.add_dependency(0, 1);
    p.add_dependency(1, 2);
    p.add_dependency(2, 0);
    EXPECT_THROW(p.depends_on(0, 1), std::invalid_argument);
}

TEST(Poset, TransitiveClosure) {
    Poset p{4};
    p.add_dependency(3, 2);
    p.add_dependency(2, 1);
    p.add_dependency(1, 0);
    EXPECT_TRUE(p.depends_on(3, 0));
    EXPECT_TRUE(p.depends_on(3, 1));
    EXPECT_FALSE(p.depends_on(0, 3));
    EXPECT_TRUE(p.leq(3, 3));
    EXPECT_TRUE(p.comparable(0, 3));
}

TEST(Poset, ChainProperties) {
    Poset p{4};
    p.add_dependency(3, 2);
    p.add_dependency(2, 1);
    p.add_dependency(1, 0);
    EXPECT_EQ(p.longest_chain_length(), 4u);
    EXPECT_FALSE(p.is_antichain({0, 3}));
    EXPECT_EQ(p.anchors(), (std::vector<Element>{0, 1, 2}));
}

TEST(Poset, MpegLikeStructure) {
    const Poset p = mpeg_like();
    EXPECT_EQ(p.anchors(), (std::vector<Element>{0, 2, 4, 6}));
    EXPECT_TRUE(p.direct_prerequisites(0).empty());  // I frames
    EXPECT_TRUE(p.direct_prerequisites(4).empty());
    EXPECT_EQ(p.longest_chain_length(), 3u);  // e.g. B0 < P0 < I0
    EXPECT_TRUE(p.is_antichain({1, 3, 5}));
    EXPECT_FALSE(p.is_antichain({0, 2}));
}

TEST(Poset, AntichainRejectsDuplicates) {
    const Poset p{3};
    EXPECT_FALSE(p.is_antichain({1, 1}));
}

TEST(Poset, AntichainDecompositionIsMinimalAndValid) {
    const Poset p = mpeg_like();
    const auto layers = layer_members(p);
    EXPECT_EQ(layers.size(), p.longest_chain_length());  // Mirsky's theorem
    std::size_t total = 0;
    for (const auto& layer : layers) {
        EXPECT_TRUE(p.is_antichain(layer));
        total += layer.size();
    }
    EXPECT_EQ(total, p.size());
    // Prerequisites live in strictly earlier layers.
    std::vector<std::size_t> layer_of(p.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        for (const Element e : layers[i]) layer_of[e] = i;
    }
    for (Element x = 0; x < p.size(); ++x) {
        for (const Element q : p.direct_prerequisites(x)) {
            EXPECT_LT(layer_of[q], layer_of[x]);
        }
    }
}

TEST(Poset, LinearExtensionIsValidAndDeterministic) {
    const Poset p = mpeg_like();
    const auto order = p.linear_extension();
    EXPECT_TRUE(p.is_linear_extension(order));
    EXPECT_EQ(order, p.linear_extension());
    // Prerequisite-first: I0 before P0 before B0.
    const auto pos = [&](Element e) {
        return std::find(order.begin(), order.end(), e) - order.begin();
    };
    EXPECT_LT(pos(0), pos(2));
    EXPECT_LT(pos(2), pos(1));
}

TEST(Poset, IsLinearExtensionRejectsBadOrders) {
    const Poset p = mpeg_like();
    EXPECT_FALSE(p.is_linear_extension({0, 1, 2, 3, 4, 5}));        // wrong size
    EXPECT_FALSE(p.is_linear_extension({0, 0, 2, 3, 4, 5, 6}));     // duplicate
    EXPECT_FALSE(p.is_linear_extension({1, 0, 2, 3, 4, 5, 6}));     // B0 before I0
    EXPECT_TRUE(p.is_linear_extension({0, 2, 1, 4, 6, 3, 5}));
}

TEST(LayerMembers, AnchorsByHeightThenNonAnchors) {
    const auto layers = layer_members(mpeg_like());
    ASSERT_EQ(layers.size(), 3u);
    EXPECT_EQ(layers[0], (std::vector<Element>{0, 4}));  // I frames
    EXPECT_EQ(layers[1], (std::vector<Element>{2, 6}));  // P frames
    EXPECT_EQ(layers[2], (std::vector<Element>{1, 3, 5}));  // B frames
}

TEST(LayerMembers, LayerCountEqualsLongestChain) {
    const Poset p = mpeg_like();
    EXPECT_EQ(layer_members(p).size(), p.longest_chain_length());
}

TEST(LayerMembers, EachLayerIsAnAntichain) {
    const Poset p = mpeg_like();
    for (const auto& layer : layer_members(p)) {
        EXPECT_TRUE(p.is_antichain(layer));
    }
}

TEST(LayerMembers, DependencyFreeStreamIsOneLayer) {
    // MJPEG: the whole window is a single non-critical layer (the paper's
    // "protocol simplifies to just a scrambling of frames").
    const Poset p{6};
    const auto layers = layer_members(p);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0].size(), 6u);
}

TEST(LayerMembers, EmptyPoset) {
    EXPECT_TRUE(layer_members(Poset{0}).empty());
}

TEST(LayerMembers, FourGopsLayerByHeight) {
    // 4 GOPs of I,P,B: I_k = 3k, P_k = 3k+1 (needs I_k), B_k = 3k+2 (needs
    // I_k and P_k).
    Poset p{12};
    for (std::size_t k = 0; k < 4; ++k) {
        p.add_dependency(3 * k + 1, 3 * k);
        p.add_dependency(3 * k + 2, 3 * k);
        p.add_dependency(3 * k + 2, 3 * k + 1);
    }
    const auto layers = layer_members(p);
    ASSERT_EQ(layers.size(), 3u);
    EXPECT_EQ(layers[0], (std::vector<Element>{0, 3, 6, 9}));
    EXPECT_EQ(layers[1], (std::vector<Element>{1, 4, 7, 10}));
    EXPECT_EQ(layers[2], (std::vector<Element>{2, 5, 8, 11}));
    std::vector<Element> order;
    for (const auto& layer : layers) order.insert(order.end(), layer.begin(), layer.end());
    EXPECT_TRUE(p.is_linear_extension(order));
}

}  // namespace
