#include "protocol/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/cpo.hpp"
#include "media/trace.hpp"
#include "poset/poset.hpp"

namespace {

using espread::proto::Planner;
using espread::proto::Scheme;
using espread::proto::SessionConfig;
using espread::proto::StreamKind;
using espread::proto::WindowPlan;

SessionConfig mpeg_config(Scheme scheme, std::size_t gops = 2) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMpeg;
    cfg.stream.movie = "Jurassic Park";  // GOP 12 @ 24 fps
    cfg.gops_per_window = gops;
    cfg.scheme = scheme;
    return cfg;
}

// Every plan must enumerate each window frame exactly once.
void expect_complete_order(const Planner& planner, const WindowPlan& plan) {
    std::set<std::size_t> seen;
    for (const auto& e : plan.order) seen.insert(e.local_frame);
    EXPECT_EQ(seen.size(), planner.window_ldus());
    EXPECT_EQ(plan.order.size(), planner.window_ldus());
}

TEST(Planner, MpegLayerStructure) {
    SessionConfig cfg = mpeg_config(Scheme::kLayeredSpread);
    Planner planner{cfg};
    EXPECT_EQ(planner.window_ldus(), 24u);
    // Figure 3: layers I, P1, P2, P3, B.
    EXPECT_EQ(planner.layer_sizes(),
              (std::vector<std::size_t>{2, 2, 2, 2, 16}));
    EXPECT_EQ(planner.layer_critical(),
              (std::vector<bool>{true, true, true, true, false}));
    EXPECT_EQ(planner.noncritical_size(), 16u);
}

TEST(Planner, InOrderIsMpegCodingOrder) {
    Planner planner{mpeg_config(Scheme::kInOrder)};
    EXPECT_EQ(planner.layer_sizes(), (std::vector<std::size_t>{24}));
    EXPECT_EQ(planner.layer_critical(), (std::vector<bool>{false}));
    EXPECT_EQ(planner.noncritical_size(), 24u);
    const WindowPlan& plan = planner.plan(4);
    expect_complete_order(planner, plan);
    // Coding order: each frame follows its prerequisites (I0 P1 B B P2 ...).
    std::vector<std::size_t> wire;
    for (const auto& e : plan.order) wire.push_back(e.local_frame);
    const std::vector<std::size_t> head{0, 3, 1, 2, 6, 4, 5, 9, 7, 8};
    ASSERT_GE(wire.size(), head.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), wire.begin()));
    EXPECT_TRUE(planner.dependency_poset().is_linear_extension(wire));
    // Anchors are still marked critical per frame (retransmission targets).
    EXPECT_TRUE(plan.order[0].critical);   // I0
    EXPECT_TRUE(plan.order[1].critical);   // P1
    EXPECT_FALSE(plan.order[2].critical);  // B
}

TEST(Planner, SpreadPlanRespectsLayerOrderAndIsComplete) {
    Planner planner{mpeg_config(Scheme::kLayeredSpread)};
    const WindowPlan& plan = planner.plan(4);
    expect_complete_order(planner, plan);
    // Layers appear in order 0,1,2,... along the wire.
    std::size_t prev_layer = 0;
    for (const auto& e : plan.order) {
        EXPECT_GE(e.layer, prev_layer);
        prev_layer = e.layer;
    }
    // The critical layers carry the anchors.
    for (const auto& e : plan.order) {
        if (e.layer < 4) {
            EXPECT_TRUE(e.critical);
        } else {
            EXPECT_FALSE(e.critical);
        }
    }
}

TEST(Planner, SpreadScramblesNoncriticalLayer) {
    Planner planner{mpeg_config(Scheme::kLayeredSpread)};
    const WindowPlan& plan = planner.plan(4);
    // Extract the B layer's frame sequence; it must not be ascending.
    std::vector<std::size_t> b_frames;
    for (const auto& e : plan.order) {
        if (e.layer == 4) b_frames.push_back(e.local_frame);
    }
    ASSERT_EQ(b_frames.size(), 16u);
    EXPECT_FALSE(std::is_sorted(b_frames.begin(), b_frames.end()));
}

TEST(Planner, NoScrambleKeepsLayersAscending) {
    Planner planner{mpeg_config(Scheme::kLayeredNoScramble)};
    const WindowPlan& plan = planner.plan(4);
    std::vector<std::size_t> b_frames;
    for (const auto& e : plan.order) {
        if (e.layer == 4) b_frames.push_back(e.local_frame);
    }
    EXPECT_TRUE(std::is_sorted(b_frames.begin(), b_frames.end()));
}

TEST(Planner, IboUsesInverseBinaryOrderOnBLayer) {
    Planner planner{mpeg_config(Scheme::kLayeredIbo)};
    const WindowPlan& plan = planner.plan(4);
    std::vector<std::size_t> b_frames;
    for (const auto& e : plan.order) {
        if (e.layer == 4) b_frames.push_back(e.local_frame);
    }
    ASSERT_EQ(b_frames.size(), 16u);
    EXPECT_FALSE(std::is_sorted(b_frames.begin(), b_frames.end()));
    // IBO of 16 starts with positions 0, 8, 4, 12 of the member list.
    std::vector<std::size_t> members = b_frames;
    std::sort(members.begin(), members.end());
    EXPECT_EQ(b_frames[0], members[0]);
    EXPECT_EQ(b_frames[1], members[8]);
    EXPECT_EQ(b_frames[2], members[4]);
    EXPECT_EQ(b_frames[3], members[12]);
}

TEST(Planner, PlanCacheReturnsSameObject) {
    Planner planner{mpeg_config(Scheme::kLayeredSpread)};
    const WindowPlan& a = planner.plan(4);
    const WindowPlan& b = planner.plan(4);
    EXPECT_EQ(&a, &b);
    const WindowPlan& c = planner.plan(2);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(c.noncritical_bound, 2u);
}

TEST(Planner, MjpegIsOneNoncriticalLayer) {
    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 17;
    cfg.scheme = Scheme::kLayeredSpread;
    Planner planner{cfg};
    EXPECT_EQ(planner.layer_sizes(), (std::vector<std::size_t>{17}));
    EXPECT_EQ(planner.layer_critical(), (std::vector<bool>{false}));
    const WindowPlan& plan = planner.plan(7);
    expect_complete_order(planner, plan);
    // With b = 7 and n = 17 the Table 1 guarantee applies: the wire order
    // scrambles.
    std::vector<std::size_t> frames;
    for (const auto& e : plan.order) frames.push_back(e.local_frame);
    EXPECT_FALSE(std::is_sorted(frames.begin(), frames.end()));
}

TEST(Planner, PrerequisitesExposedForClient) {
    Planner planner{mpeg_config(Scheme::kLayeredSpread)};
    const auto& prereqs = planner.prerequisites();
    ASSERT_EQ(prereqs.size(), 24u);
    EXPECT_TRUE(prereqs[0].empty());                               // I frame
    EXPECT_EQ(prereqs[3], (std::vector<std::size_t>{0}));          // P1 <- I
    EXPECT_EQ(prereqs[1], (std::vector<std::size_t>{0, 3}));       // B <- I, P1
    EXPECT_EQ(prereqs[12], (std::vector<std::size_t>{}));          // second I
}

TEST(Planner, BoundClampedToLayerSize) {
    Planner planner{mpeg_config(Scheme::kLayeredSpread)};
    const WindowPlan& plan = planner.plan(1000);
    expect_complete_order(planner, plan);  // no crash; bound clamped inside
}

/// Wire order of layer `layer` of `plan` (local frame ids).
std::vector<std::size_t> layer_wire(const WindowPlan& plan, std::size_t layer) {
    std::vector<std::size_t> out;
    for (const auto& e : plan.order) {
        if (e.layer == layer) out.push_back(e.local_frame);
    }
    return out;
}

// Calls check(planner, plan, scheme, bound) on every plan of every catalog
// movie at W = 1..3 GOPs, under every scheme and every bound from 0 to one
// past the window: the space over which the LayeredPlan tests below check
// the contracts of the Layered Permutation Transmission Order.
template <typename Check>
void for_each_catalog_plan(Check check) {
    const Scheme schemes[] = {Scheme::kInOrder,      Scheme::kLayeredNoScramble,
                              Scheme::kLayeredIbo,   Scheme::kLayeredSpread,
                              Scheme::kRlc,          Scheme::kHybridSpreadRlc};
    for (const auto& movie : espread::media::movie_catalog()) {
        for (std::size_t gops = 1; gops <= 3; ++gops) {
            for (const Scheme scheme : schemes) {
                SessionConfig cfg = mpeg_config(scheme, gops);
                cfg.stream.movie = movie.name;
                Planner planner{cfg};
                ASSERT_EQ(planner.window_ldus(), movie.gop_size * gops);
                for (std::size_t bound = 0; bound <= planner.window_ldus() + 1; ++bound) {
                    SCOPED_TRACE(movie.name + " W=" + std::to_string(gops) +
                                 " scheme=" + espread::proto::scheme_name(scheme) +
                                 " b=" + std::to_string(bound));
                    check(planner, planner.plan(bound), scheme, bound);
                }
            }
        }
    }
}

bool spreads(Scheme scheme) {
    return scheme == Scheme::kLayeredSpread || scheme == Scheme::kHybridSpreadRlc;
}

// Every entry's critical flag marks exactly the anchors, and the critical
// (anchor-only) layers go out first, in layer order.
TEST(LayeredPlan, CriticalityFollowsAnchors) {
    for_each_catalog_plan([](const Planner& planner, const WindowPlan& plan, Scheme,
                             std::size_t) {
        std::vector<bool> anchor(planner.window_ldus(), false);
        for (const std::size_t a : planner.dependency_poset().anchors()) anchor[a] = true;
        ASSERT_EQ(plan.layer_critical, planner.layer_critical());
        std::size_t prev_layer = 0;
        bool seen_noncritical = false;
        for (const auto& e : plan.order) {
            EXPECT_GE(e.layer, prev_layer);
            prev_layer = e.layer;
            EXPECT_EQ(e.critical, anchor[e.local_frame]);
            if (plan.layer_critical[e.layer]) {
                EXPECT_FALSE(seen_noncritical) << "critical layers come first";
                EXPECT_TRUE(anchor[e.local_frame]);
            } else {
                seen_noncritical = true;
            }
        }
    });
}

// Under the spreading schemes a critical layer of m frames is scrambled
// against the fixed bound ceil(m / 2) whatever the adaptive bound, and a
// non-critical layer against the adaptive bound clamped to the layer (and
// below the degenerate whole-layer bound).
TEST(LayeredPlan, BoundsPerLayerClass) {
    for_each_catalog_plan([](const Planner&, const WindowPlan& plan, Scheme scheme,
                             std::size_t bound) {
        EXPECT_EQ(plan.noncritical_bound, bound);
        if (!spreads(scheme)) return;
        for (std::size_t l = 0; l < plan.layer_sizes.size(); ++l) {
            const std::vector<std::size_t> tx = layer_wire(plan, l);
            std::vector<std::size_t> members = tx;
            std::sort(members.begin(), members.end());
            const std::size_t m = members.size();
            std::size_t layer_bound = std::min(bound, m);
            if (layer_bound == m && m > 1) layer_bound = m - 1;
            if (plan.layer_critical[l]) layer_bound = (m + 1) / 2;
            EXPECT_EQ(tx, espread::calculate_permutation(m, layer_bound).perm.apply(members))
                << "layer " << l;
        }
    });
}

// Each frame goes out exactly once, and each layer carries as many frames
// as the planner's layer structure says.
TEST(LayeredPlan, PermutationsMatchLayerSizes) {
    for_each_catalog_plan([](const Planner& planner, const WindowPlan& plan, Scheme,
                             std::size_t) {
        expect_complete_order(planner, plan);
        ASSERT_EQ(plan.layer_sizes, planner.layer_sizes());
        for (std::size_t l = 0; l < plan.layer_sizes.size(); ++l) {
            EXPECT_EQ(layer_wire(plan, l).size(), plan.layer_sizes[l]) << "layer " << l;
        }
    });
}

// No frame goes out before a frame it depends on.
TEST(LayeredPlan, FlattenedIsALinearExtension) {
    for_each_catalog_plan([](const Planner& planner, const WindowPlan& plan, Scheme,
                             std::size_t) {
        std::vector<std::size_t> wire;
        for (const auto& e : plan.order) wire.push_back(e.local_frame);
        EXPECT_TRUE(planner.dependency_poset().is_linear_extension(wire));
    });
}

// Scrambling stays within a layer: each layer's wire order is a permutation
// of that layer's members (the poset's height layer, or the coding order
// for the single-layer baselines), numbered 0..m-1 by transmission slot.
TEST(LayeredPlan, TransmissionAppliesWithinLayerPermutation) {
    for_each_catalog_plan([](const Planner& planner, const WindowPlan& plan, Scheme scheme,
                             std::size_t) {
        const auto& poset = planner.dependency_poset();
        const std::vector<std::vector<std::size_t>> layers =
            scheme == Scheme::kInOrder || scheme == Scheme::kRlc
                ? std::vector<std::vector<std::size_t>>{poset.linear_extension()}
                : espread::poset::layer_members(poset);
        ASSERT_EQ(layers.size(), plan.layer_sizes.size());
        std::vector<std::size_t> next_pos(layers.size(), 0);
        for (const auto& e : plan.order) EXPECT_EQ(e.tx_pos, next_pos[e.layer]++);
        for (std::size_t l = 0; l < layers.size(); ++l) {
            std::vector<std::size_t> tx = layer_wire(plan, l);
            std::vector<std::size_t> members = layers[l];
            std::sort(tx.begin(), tx.end());
            std::sort(members.begin(), members.end());
            EXPECT_EQ(tx, members) << "layer " << l;
        }
    });
}

// A bound of the whole non-critical layer is degenerate — every order has
// worst-case CLF m against it, so calculate_permutation returns the
// identity — and after a catastrophic window it would switch scrambling off
// just when the network is worst.  The planner spreads against m - 1
// instead: plan(m) equals plan(m - 1), and the layer stays scrambled.
TEST(Planner, WholeLayerBoundKeepsSpreading) {
    Planner mpeg{mpeg_config(Scheme::kLayeredSpread)};
    ASSERT_EQ(mpeg.layer_sizes().back(), 16u);  // the B layer at W = 2
    const std::size_t b_layer = mpeg.layer_sizes().size() - 1;
    const std::vector<std::size_t> b16 = layer_wire(mpeg.plan(16), b_layer);
    EXPECT_EQ(b16, layer_wire(mpeg.plan(15), b_layer));
    EXPECT_FALSE(std::is_sorted(b16.begin(), b16.end()));

    SessionConfig cfg;
    cfg.stream.kind = StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 24;
    cfg.scheme = Scheme::kLayeredSpread;
    Planner mjpeg{cfg};
    const std::vector<std::size_t> w24 = layer_wire(mjpeg.plan(24), 0);
    EXPECT_EQ(w24, layer_wire(mjpeg.plan(23), 0));
    EXPECT_FALSE(std::is_sorted(w24.begin(), w24.end()));
}

}  // namespace
