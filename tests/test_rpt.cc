/**
 * @file
 * Unit tests for the Reference Prediction Table and its four-state
 * control automaton (paper Figure 4).
 */

#include <gtest/gtest.h>

#include "core/rpt.hh"

using namespace psim;

namespace
{
constexpr Pc kPc = 0x4000;
}

TEST(Rpt, AllocatesOnlyOnMiss)
{
    Rpt rpt;
    // A hit in the SLC with no entry must not allocate.
    auto oc = rpt.observe(kPc, 1000, /*allocate_on_miss=*/false);
    EXPECT_FALSE(oc.entryHit);
    EXPECT_EQ(rpt.lookup(kPc), nullptr);

    oc = rpt.observe(kPc, 1000, true);
    EXPECT_FALSE(oc.entryHit);
    ASSERT_NE(rpt.lookup(kPc), nullptr);
    EXPECT_EQ(rpt.lookup(kPc)->state, RptState::New);
    EXPECT_DOUBLE_EQ(rpt.allocations.value(), 1.0);
}

TEST(Rpt, SecondAppearanceComputesStrideAndStartsPrefetching)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    auto oc = rpt.observe(kPc, 1032, true);
    EXPECT_TRUE(oc.entryHit);
    EXPECT_EQ(oc.state, RptState::Init);
    EXPECT_EQ(oc.stride, 32);
    EXPECT_TRUE(oc.prefetchable);
}

TEST(Rpt, ThreeInARowReachesSteady)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);
    auto oc = rpt.observe(kPc, 1064, true);
    EXPECT_EQ(oc.state, RptState::Steady);
    EXPECT_TRUE(oc.prefetchable);
    EXPECT_DOUBLE_EQ(rpt.correct.value(), 1.0);
}

TEST(Rpt, SingleIncorrectFromSteadyKeepsStride)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);
    rpt.observe(kPc, 1064, true); // steady
    // A single wrong prediction demotes to init without recalculating
    // the stride (Section 3.2).
    auto oc = rpt.observe(kPc, 5000, true);
    EXPECT_EQ(oc.state, RptState::Init);
    EXPECT_EQ(oc.stride, 32);
    EXPECT_TRUE(oc.prefetchable);
    // The old stride re-confirms: back to steady.
    oc = rpt.observe(kPc, 5032, true);
    EXPECT_EQ(oc.state, RptState::Steady);
}

TEST(Rpt, SecondIncorrectRecalculatesStrideInTransient)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);
    rpt.observe(kPc, 1064, true);  // steady, stride 32
    rpt.observe(kPc, 5000, true);  // incorrect #1 -> init (stride 32)
    auto oc = rpt.observe(kPc, 5064, true); // incorrect #2 -> transient
    EXPECT_EQ(oc.state, RptState::Transient);
    EXPECT_EQ(oc.stride, 64); // recalculated
    EXPECT_TRUE(oc.prefetchable);
}

TEST(Rpt, ThreeIncorrectInARowStopPrefetching)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);
    rpt.observe(kPc, 1064, true);   // steady
    rpt.observe(kPc, 5000, true);   // init
    rpt.observe(kPc, 9000, true);   // transient (stride 4000)
    auto oc = rpt.observe(kPc, 20000, true); // no-pref
    EXPECT_EQ(oc.state, RptState::NoPref);
    EXPECT_FALSE(oc.prefetchable);
}

TEST(Rpt, NoPrefRecoversThroughTransient)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);
    rpt.observe(kPc, 1064, true);
    rpt.observe(kPc, 5000, true);
    rpt.observe(kPc, 9000, true);
    rpt.observe(kPc, 20000, true); // no-pref, stride 11000
    // A correct prediction at the no-pref stride re-enables detection.
    auto oc = rpt.observe(kPc, 31000, true);
    EXPECT_EQ(oc.state, RptState::Transient);
    EXPECT_TRUE(oc.prefetchable);
    oc = rpt.observe(kPc, 42000, true);
    EXPECT_EQ(oc.state, RptState::Steady);
}

TEST(Rpt, TransientCorrectGoesSteady)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    rpt.observe(kPc, 1032, true);  // init, stride 32
    rpt.observe(kPc, 2000, true);  // incorrect -> transient, stride 968
    auto oc = rpt.observe(kPc, 2968, true); // correct at new stride
    EXPECT_EQ(oc.state, RptState::Steady);
    EXPECT_EQ(oc.stride, 968);
}

TEST(Rpt, ZeroStrideIsNotPrefetchable)
{
    Rpt rpt;
    rpt.observe(kPc, 1000, true);
    auto oc = rpt.observe(kPc, 1000, true);
    EXPECT_EQ(oc.stride, 0);
    EXPECT_FALSE(oc.prefetchable);
}

TEST(Rpt, NegativeStridesWork)
{
    Rpt rpt;
    rpt.observe(kPc, 5000, true);
    rpt.observe(kPc, 4968, true);
    auto oc = rpt.observe(kPc, 4936, true);
    EXPECT_EQ(oc.state, RptState::Steady);
    EXPECT_EQ(oc.stride, -32);
}

TEST(Rpt, ConflictingPcEvictsEntry)
{
    Rpt rpt; // PCs one table size of words apart collide
    Pc pc_a = 0x1000;
    Pc pc_b = 0x1000 + PrefetchConfig::rptEntries * 4; // same index
    rpt.observe(pc_a, 1000, true);
    rpt.observe(pc_b, 9000, true);
    EXPECT_EQ(rpt.lookup(pc_a), nullptr);
    ASSERT_NE(rpt.lookup(pc_b), nullptr);
    EXPECT_DOUBLE_EQ(rpt.conflicts.value(), 1.0);
}

TEST(Rpt, DistinctPcsTrackIndependentStreams)
{
    Rpt rpt;
    // Different table indices: the RPT drops the low two PC bits, so
    // word-adjacent instructions land in adjacent entries.
    Pc pc_a = 0x1000;
    Pc pc_b = 0x1004;
    rpt.observe(pc_a, 1000, true);
    rpt.observe(pc_b, 50000, true);
    rpt.observe(pc_a, 1032, true);
    rpt.observe(pc_b, 50672, true);
    ASSERT_NE(rpt.lookup(pc_a), nullptr);
    ASSERT_NE(rpt.lookup(pc_b), nullptr);
    EXPECT_EQ(rpt.lookup(pc_a)->stride, 32);
    EXPECT_EQ(rpt.lookup(pc_b)->stride, 672);
}

// Property-style sweep: a clean stride stream of any stride reaches
// steady after three accesses and stays there.
class RptSteadyStream : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(RptSteadyStream, StaysSteadyForever)
{
    std::int64_t stride = GetParam();
    Rpt rpt;
    Addr a = 1 << 20;
    rpt.observe(kPc, a, true);
    rpt.observe(kPc, a + stride, true);
    for (int i = 2; i < 50; ++i) {
        auto oc = rpt.observe(kPc,
                static_cast<Addr>(static_cast<std::int64_t>(a) +
                                  stride * i), true);
        EXPECT_EQ(oc.state, RptState::Steady) << "access " << i;
        EXPECT_EQ(oc.stride, stride);
    }
    EXPECT_DOUBLE_EQ(rpt.incorrect.value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Strides, RptSteadyStream,
        ::testing::Values(8, 32, 40, 672, 2080, -32, -672, 4096));
