/**
 * @file
 * Unit tests for the Table-2/3 stride characterizer.
 */

#include <gtest/gtest.h>

#include "core/characterizer.hh"

using namespace psim;

namespace
{
constexpr unsigned kBlk = 32;
constexpr Pc kPcA = 0x100;
constexpr Pc kPcB = 0x200;
}

TEST(Characterizer, PureStrideStreamIsFullyStride)
{
    StrideCharacterizer c(kBlk);
    for (int i = 0; i < 10; ++i)
        c.observeMiss(kPcA, 1000 + 32u * i);
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 10u);
    EXPECT_EQ(r.strideMisses, 10u);
    EXPECT_DOUBLE_EQ(r.strideFraction, 1.0);
    EXPECT_EQ(r.numSequences, 1u);
    EXPECT_DOUBLE_EQ(r.avgSequenceLength, 10.0);
    ASSERT_FALSE(r.topStrides.empty());
    EXPECT_EQ(r.topStrides[0].first, 1); // one block
    EXPECT_DOUBLE_EQ(r.topStrides[0].second, 1.0);
}

TEST(Characterizer, TwoAccessesAreNotASequence)
{
    StrideCharacterizer c(kBlk);
    c.observeMiss(kPcA, 1000);
    c.observeMiss(kPcA, 1032);
    auto r = c.finalize();
    EXPECT_EQ(r.strideMisses, 0u);
    EXPECT_EQ(r.numSequences, 0u);
}

TEST(Characterizer, ThreeEquidistantAccessesAreASequence)
{
    StrideCharacterizer c(kBlk);
    c.observeMiss(kPcA, 1000);
    c.observeMiss(kPcA, 1032);
    c.observeMiss(kPcA, 1064);
    auto r = c.finalize();
    EXPECT_EQ(r.strideMisses, 3u);
    EXPECT_EQ(r.numSequences, 1u);
    EXPECT_DOUBLE_EQ(r.avgSequenceLength, 3.0);
}

TEST(Characterizer, RandomStreamHasNoSequences)
{
    StrideCharacterizer c(kBlk);
    Addr addrs[] = {1000, 5000, 2000, 9000, 3000, 12000, 100, 7000};
    for (Addr a : addrs)
        c.observeMiss(kPcA, a);
    auto r = c.finalize();
    EXPECT_EQ(r.strideMisses, 0u);
    EXPECT_DOUBLE_EQ(r.strideFraction, 0.0);
}

TEST(Characterizer, InterleavedPcsTrackedSeparately)
{
    StrideCharacterizer c(kBlk);
    // Two interleaved per-PC streams, each a clean stride sequence.
    for (int i = 0; i < 5; ++i) {
        c.observeMiss(kPcA, 1000 + 32u * i);
        c.observeMiss(kPcB, 900000 + 672u * i);
    }
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 10u);
    EXPECT_EQ(r.strideMisses, 10u);
    EXPECT_EQ(r.numSequences, 2u);
    // Stride histogram has 1-block and 21-block entries, equal weight.
    ASSERT_EQ(r.topStrides.size(), 2u);
    EXPECT_DOUBLE_EQ(r.topStrides[0].second, 0.5);
}

TEST(Characterizer, SameAddressMissesAreNotAStride)
{
    StrideCharacterizer c(kBlk);
    for (int i = 0; i < 6; ++i)
        c.observeMiss(kPcA, 4000); // repeated coherence misses
    auto r = c.finalize();
    EXPECT_EQ(r.strideMisses, 0u);
}

TEST(Characterizer, BrokenRunSplitsSequences)
{
    StrideCharacterizer c(kBlk);
    // Two runs of 4 at stride 32, separated by a jump: the jump access
    // starts the second run.
    Addr a = 1000;
    for (int i = 0; i < 4; ++i, a += 32)
        c.observeMiss(kPcA, a);
    a = 500000;
    for (int i = 0; i < 4; ++i, a += 32)
        c.observeMiss(kPcA, a);
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 8u);
    EXPECT_EQ(r.numSequences, 2u);
    EXPECT_EQ(r.strideMisses, 8u);
}

TEST(Characterizer, SubBlockStrideCountsAsOneBlock)
{
    StrideCharacterizer c(kBlk);
    for (int i = 0; i < 8; ++i)
        c.observeMiss(kPcA, 1000 + 8u * i); // 8-byte stride
    auto r = c.finalize();
    ASSERT_FALSE(r.topStrides.empty());
    EXPECT_EQ(r.topStrides[0].first, 1);
}

TEST(Characterizer, LargeStrideReportedInBlocks)
{
    StrideCharacterizer c(kBlk);
    for (int i = 0; i < 5; ++i)
        c.observeMiss(kPcA, 10000 + 2080u * i); // Ocean's 65 blocks
    auto r = c.finalize();
    ASSERT_FALSE(r.topStrides.empty());
    EXPECT_EQ(r.topStrides[0].first, 65);
}

TEST(Characterizer, NegativeStrideMagnitudeUsed)
{
    StrideCharacterizer c(kBlk);
    for (int i = 0; i < 5; ++i)
        c.observeMiss(kPcA, 100000 - 672u * i);
    auto r = c.finalize();
    ASSERT_FALSE(r.topStrides.empty());
    EXPECT_EQ(r.topStrides[0].first, 21);
}

TEST(Characterizer, MixedStreamFractionIsCorrect)
{
    StrideCharacterizer c(kBlk);
    // 6 stride misses...
    for (int i = 0; i < 6; ++i)
        c.observeMiss(kPcA, 1000 + 32u * i);
    // ...then 6 scattered misses from another PC.
    Addr scattered[] = {70000, 10000, 40000, 90000, 20000, 60000};
    for (Addr a : scattered)
        c.observeMiss(kPcB, a);
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 12u);
    EXPECT_EQ(r.strideMisses, 6u);
    EXPECT_DOUBLE_EQ(r.strideFraction, 0.5);
}

TEST(Characterizer, BackToBackSequencesShareNoMiss)
{
    StrideCharacterizer c(kBlk);
    // Run of 4 at stride 32 followed immediately by a run at stride
    // 64 starting from the last access: the shared access must be
    // counted once.
    c.observeMiss(kPcA, 1000);
    c.observeMiss(kPcA, 1032);
    c.observeMiss(kPcA, 1064);
    c.observeMiss(kPcA, 1096); // last of run 1
    c.observeMiss(kPcA, 1160); // stride 64
    c.observeMiss(kPcA, 1224);
    c.observeMiss(kPcA, 1288);
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 7u);
    EXPECT_EQ(r.strideMisses, 7u);
    EXPECT_EQ(r.numSequences, 2u);
}

TEST(Characterizer, EmptyStreamFinalizesCleanly)
{
    StrideCharacterizer c(kBlk);
    auto r = c.finalize();
    EXPECT_EQ(r.totalMisses, 0u);
    EXPECT_DOUBLE_EQ(r.strideFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.avgSequenceLength, 0.0);
    EXPECT_TRUE(r.topStrides.empty());
}

// Parameterized sweep: for any stride, a long clean sequence yields
// fraction 1.0 and the right dominant stride in blocks.
class CharacterizerSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>>
{
};

TEST_P(CharacterizerSweep, CleanSequence)
{
    auto [stride_bytes, expect_blocks] = GetParam();
    StrideCharacterizer c(kBlk);
    Addr base = 1 << 20;
    for (int i = 0; i < 20; ++i) {
        c.observeMiss(kPcA, static_cast<Addr>(
                static_cast<std::int64_t>(base) + stride_bytes * i));
    }
    auto r = c.finalize();
    EXPECT_DOUBLE_EQ(r.strideFraction, 1.0);
    ASSERT_FALSE(r.topStrides.empty());
    EXPECT_EQ(r.topStrides[0].first, expect_blocks);
}

INSTANTIATE_TEST_SUITE_P(Strides, CharacterizerSweep,
        ::testing::Values(std::pair<std::int64_t, std::int64_t>{8, 1},
                          std::pair<std::int64_t, std::int64_t>{32, 1},
                          std::pair<std::int64_t, std::int64_t>{40, 1},
                          std::pair<std::int64_t, std::int64_t>{64, 2},
                          std::pair<std::int64_t, std::int64_t>{672, 21},
                          std::pair<std::int64_t, std::int64_t>{2080, 65},
                          std::pair<std::int64_t, std::int64_t>{-96, 3}));
