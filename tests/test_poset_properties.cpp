// Randomized property tests for the poset machinery: random DAGs must
// satisfy the order axioms, Mirsky's theorem, and the transmission-layer
// contracts regardless of shape.
#include <gtest/gtest.h>

#include <algorithm>

#include "poset/poset.hpp"
#include "sim/rng.hpp"

namespace {

using espread::poset::Element;
using espread::poset::layer_members;
using espread::poset::Poset;

/// Random DAG on n elements: each pair (i, j) with i < j gets an edge
/// "j depends on i" with probability p.  Edges always point from higher to
/// lower index, so the result is acyclic by construction.
Poset random_poset(std::size_t n, double p, espread::sim::Rng& rng) {
    Poset poset{n};
    for (std::size_t j = 1; j < n; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (rng.bernoulli(p)) poset.add_dependency(j, i);
        }
    }
    return poset;
}

class RandomPosetSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RandomPosetSweep, OrderAxiomsHold) {
    const auto [seed, density] = GetParam();
    espread::sim::Rng rng{static_cast<std::uint64_t>(seed)};
    const Poset p = random_poset(12, density, rng);
    for (Element x = 0; x < p.size(); ++x) {
        EXPECT_TRUE(p.leq(x, x));                 // reflexivity
        EXPECT_FALSE(p.depends_on(x, x));         // irreflexive strict part
        for (Element y = 0; y < p.size(); ++y) {
            if (x != y && p.depends_on(x, y)) {
                EXPECT_FALSE(p.depends_on(y, x))  // antisymmetry
                    << x << " <-> " << y;
            }
            for (Element z = 0; z < p.size(); ++z) {
                if (p.depends_on(x, y) && p.depends_on(y, z)) {
                    EXPECT_TRUE(p.depends_on(x, z))  // transitivity
                        << x << "<" << y << "<" << z;
                }
            }
        }
    }
}

TEST_P(RandomPosetSweep, MirskyAndLinearExtension) {
    const auto [seed, density] = GetParam();
    espread::sim::Rng rng{static_cast<std::uint64_t>(seed) + 100};
    const Poset p = random_poset(14, density, rng);

    // The transmission layers are an antichain decomposition of minimal
    // count (Mirsky).
    const auto layers = layer_members(p);
    std::size_t total = 0;
    for (const auto& layer : layers) {
        EXPECT_TRUE(p.is_antichain(layer));
        total += layer.size();
    }
    EXPECT_EQ(total, p.size());
    EXPECT_EQ(layers.size(), p.longest_chain_length());

    // The canonical linear extension is valid.
    EXPECT_TRUE(p.is_linear_extension(p.linear_extension()));
}

TEST_P(RandomPosetSweep, LayerMembersContracts) {
    const auto [seed, density] = GetParam();
    espread::sim::Rng rng{static_cast<std::uint64_t>(seed) + 200};
    const Poset p = random_poset(14, density, rng);

    const auto members = layer_members(p);
    std::size_t total = 0;
    std::vector<Element> order;  // the layers concatenated, critical first
    for (const auto& layer : members) {
        EXPECT_FALSE(layer.empty());
        EXPECT_TRUE(p.is_antichain(layer));
        total += layer.size();
        order.insert(order.end(), layer.begin(), layer.end());
    }
    EXPECT_EQ(total, p.size());
    EXPECT_TRUE(p.is_linear_extension(order));
    // Every layer but the last holds anchors only, and every non-anchor
    // lands in the last layer.
    for (std::size_t l = 0; l < members.size(); ++l) {
        for (const Element e : members[l]) {
            if (l + 1 < members.size()) {
                EXPECT_TRUE(p.is_anchor(e));
            }
            if (!p.is_anchor(e)) {
                EXPECT_EQ(l + 1, members.size());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Random, RandomPosetSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.1, 0.3, 0.7)));

// H.261 has no B frames — the dependency structure is a pure P chain (the
// paper's §3.3 names it alongside MPEG).  The layering degenerates to one
// singleton layer per frame; every frame but the final P is an anchor, so
// five of the six layers are critical.
TEST(H261, ChainLayering) {
    Poset p{6};
    for (Element f = 1; f < 6; ++f) p.add_dependency(f, f - 1);
    const auto layers = layer_members(p);
    ASSERT_EQ(layers.size(), 6u);
    std::vector<Element> order;
    for (std::size_t l = 0; l < 6; ++l) {
        EXPECT_EQ(layers[l], (std::vector<Element>{l}));
        order.push_back(layers[l][0]);
    }
    EXPECT_EQ(p.anchors(), (std::vector<Element>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(p.is_linear_extension(order));
}

}  // namespace
