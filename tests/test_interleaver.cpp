#include "core/interleaver.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "core/burst.hpp"
#include "sim/rng.hpp"

namespace {

using espread::cyclic_stride_order;
using espread::ibo_order;
using espread::Permutation;
using espread::residue_class_order;

TEST(Ibo, MatchesTable2ForEight) {
    const Permutation p = ibo_order(8);
    EXPECT_EQ(p.to_string_one_based(), "01 05 03 07 02 06 04 08");
}

TEST(Ibo, PowerOfTwoIsBitReversal) {
    const Permutation p = ibo_order(4);
    EXPECT_EQ(p.image(), (std::vector<std::size_t>{0, 2, 1, 3}));
}

TEST(Ibo, NonPowerOfTwoFiltersBitReversal) {
    const Permutation p = ibo_order(6);
    // 3-bit reversal sequence 0,4,2,6,1,5,3,7 with >= 6 removed.
    EXPECT_EQ(p.image(), (std::vector<std::size_t>{0, 4, 2, 1, 5, 3}));
}

TEST(Ibo, TrivialSizes) {
    EXPECT_EQ(ibo_order(0).size(), 0u);
    EXPECT_TRUE(ibo_order(1).is_identity());
    EXPECT_EQ(ibo_order(2).image(), (std::vector<std::size_t>{0, 1}));
}

// Paper Table 2: the k-CPO row for 8 frames is "01 04 07 02 05 08 03 06",
// i.e. residue classes mod 3.
TEST(ResidueClass, MatchesTable2ForEight) {
    const Permutation p = residue_class_order(8, 3);
    EXPECT_EQ(p.to_string_one_based(), "01 04 07 02 05 08 03 06");
}

TEST(ResidueClass, StrideOneIsIdentity) {
    EXPECT_TRUE(residue_class_order(7, 1).is_identity());
}

TEST(ResidueClass, StrideEqualToSizeReversesNothing) {
    // Each class is a singleton: transmission order is 0,1,...,n-1.
    EXPECT_TRUE(residue_class_order(5, 5).is_identity());
}

TEST(ResidueClass, RejectsBadStride) {
    EXPECT_THROW(residue_class_order(5, 0), std::invalid_argument);
    EXPECT_THROW(residue_class_order(5, 6), std::invalid_argument);
}

TEST(CyclicStride, RequiresCoprimality) {
    EXPECT_THROW(cyclic_stride_order(10, 5), std::invalid_argument);
    EXPECT_THROW(cyclic_stride_order(10, 0), std::invalid_argument);
    EXPECT_NO_THROW(cyclic_stride_order(10, 3));
}

TEST(CyclicStride, WrapsModN) {
    const Permutation p = cyclic_stride_order(5, 2, 0);
    EXPECT_EQ(p.image(), (std::vector<std::size_t>{0, 2, 4, 1, 3}));
}

TEST(CyclicStride, OffsetRotatesImage) {
    const Permutation p = cyclic_stride_order(5, 2, 3);
    EXPECT_EQ(p.image(), (std::vector<std::size_t>{3, 0, 2, 4, 1}));
}

// Under a pathological burst (more than half the window), IBO degrades while
// the residue order keeps the guarantee — the §4.4 comparison.
TEST(Baselines, IboDegradesUnderLargeBursts) {
    const Permutation ibo = ibo_order(8);
    const Permutation cpo = residue_class_order(8, 3);
    EXPECT_GT(espread::worst_case_clf(ibo, 5), espread::worst_case_clf(cpo, 5));
}

}  // namespace
