/**
 * @file
 * Unit tests for Hagersten's D-detection stride prefetching.
 */

#include <gtest/gtest.h>

#include "core/ddet.hh"

using namespace psim;

namespace
{

constexpr unsigned kBlk = 32;
constexpr unsigned kEntries = PrefetchConfig::ddetEntries;
constexpr unsigned kPage = MachineConfig::pageSize;

std::vector<Addr>
miss(DDetPrefetcher &p, Addr addr)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.addr = addr;
    obs.hit = false;
    p.observeRead(obs, out);
    return out;
}

std::vector<Addr>
taggedHit(DDetPrefetcher &p, Addr addr)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.addr = addr;
    obs.hit = true;
    obs.taggedHit = true;
    p.observeRead(obs, out);
    return out;
}

DDetPrefetcher
make(unsigned degree = 1)
{
    return DDetPrefetcher(kBlk, degree);
}

} // namespace

TEST(DDet, StrideBecomesCommonAtThreshold)
{
    auto p = make();
    // Stride 64 occurs on each consecutive miss pair; threshold 3 means
    // four misses of the sequence promote it (Section 3.2).
    miss(p, 1000);
    miss(p, 1064);
    EXPECT_FALSE(p.isCommonStride(64));
    miss(p, 1128);
    EXPECT_FALSE(p.isCommonStride(64));
    miss(p, 1192);
    EXPECT_TRUE(p.isCommonStride(64));
    EXPECT_DOUBLE_EQ(p.stridesPromoted.value(), 1.0);
}

TEST(DDet, TwoMoreMissesCreateStreamAndPrefetch)
{
    auto p = make();
    miss(p, 1000);
    miss(p, 1064);
    miss(p, 1128);
    miss(p, 1192); // fourth miss: stride 64 becomes common
    EXPECT_EQ(p.numStreams(), 0u);
    // The next miss pairs with a buffered miss at the now-common
    // stride: a stream is allocated and prefetching begins (this is
    // the paper's "two additional misses" after promotion: 1192 made
    // the stride common, 1256 starts the stream).
    auto out = miss(p, 1256);
    EXPECT_EQ(p.numStreams(), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 1256u + 64u);
}

TEST(DDet, DuplicateBufferedAddressDoesNotDoubleCountStrides)
{
    auto p = make();
    // A repeated miss to one address (e.g. after an invalidation) sits
    // in the miss list twice. Pairing a later miss against both copies
    // yields the same stride twice; counting it twice per observation
    // promoted the stride one miss early (three real sequence misses
    // instead of the paper's four: promotion at 1128, not 1192).
    miss(p, 1000);
    miss(p, 1000); // duplicate: stride 0 vs itself, buffered twice
    miss(p, 1064); // stride 64 vs both 1000s — must count once
    miss(p, 1128); // stride 64 again (count 2): NOT yet common
    EXPECT_FALSE(p.isCommonStride(64));
    EXPECT_EQ(p.numStreams(), 0u);
    miss(p, 1192); // third distinct observation of 64: promoted
    EXPECT_TRUE(p.isCommonStride(64));
    EXPECT_DOUBLE_EQ(p.stridesPromoted.value(), 1.0);
    // The paper's "two additional misses": 1192 promoted the stride,
    // 1256 pairs at the now-common stride and starts the stream.
    auto out = miss(p, 1256);
    EXPECT_EQ(p.numStreams(), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 1256u + 64u);
}

TEST(DDet, PromotionDuringAnObservationDoesNotAllocateAStream)
{
    auto p = make();
    // The stride's common/frequency classification is decided before
    // any counting for the observation: the miss that promotes a
    // stride must not also allocate a stream from a later pair in the
    // same observation.
    miss(p, 1000);
    miss(p, 1064);
    miss(p, 1128);
    auto out = miss(p, 1192); // promotes 64; no stream yet
    EXPECT_TRUE(p.isCommonStride(64));
    EXPECT_EQ(p.numStreams(), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(DDet, TaggedHitAdvancesStream)
{
    auto p = make();
    for (Addr a = 1000; a <= 1256; a += 64)
        miss(p, a);
    // The stream expects 1256+64 = 1320 -> block 0x528 & ~31.
    auto out = taggedHit(p, 1320);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1320u + 64u);
}

TEST(DDet, TaggedHitWithoutStreamDoesNothing)
{
    auto p = make();
    EXPECT_TRUE(taggedHit(p, 5000).empty());
}

TEST(DDet, PlainHitDoesNothing)
{
    auto p = make();
    std::vector<Addr> out;
    ReadObservation obs;
    obs.addr = 1000;
    obs.hit = true;
    obs.taggedHit = false;
    p.observeRead(obs, out);
    EXPECT_TRUE(out.empty());
}

TEST(DDet, IgnoresZeroAndHugeStrides)
{
    auto p = make();
    for (int i = 0; i < 10; ++i) {
        miss(p, 1000);               // repeated address: stride 0
        miss(p, 1000 + kPage * 8ULL * (i + 1)); // >= page apart
    }
    EXPECT_FALSE(p.isCommonStride(0));
    EXPECT_EQ(p.numStreams(), 0u);
}

TEST(DDet, SubBlockStrideEmitsWholeBlockSteps)
{
    auto p = make();
    // Miss stream with byte stride 8 (the miss list sees every miss).
    for (Addr a = 1000; a < 1000 + 8 * 8; a += 8)
        miss(p, a);
    EXPECT_TRUE(p.isCommonStride(8));
    auto out = miss(p, 2000);
    // 2000 pairs with buffered misses; if a stream starts its prefetch
    // target must be at least one whole block away.
    for (Addr t : out)
        EXPECT_GE(t, 2000u + kBlk);
}

TEST(DDet, DegreeControlsStartBurst)
{
    auto p = make(3);
    miss(p, 1000);
    miss(p, 1064);
    miss(p, 1128);
    miss(p, 1192);
    auto out = miss(p, 1256);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 1256u + 64u);
    EXPECT_EQ(out[1], 1256u + 128u);
    EXPECT_EQ(out[2], 1256u + 192u);
}

TEST(DDet, NegativeStridesDetected)
{
    auto p = make();
    for (Addr a = 8000; a >= 8000 - 64 * 4; a -= 64)
        miss(p, a);
    EXPECT_TRUE(p.isCommonStride(-64));
}

TEST(DDet, MissPredictedByStreamKeepsItAlive)
{
    auto p = make();
    for (Addr a = 1000; a <= 1256; a += 64)
        miss(p, a);
    ASSERT_GE(p.numStreams(), 1u);
    // The next miss is exactly what the stream expected (the prefetch
    // was late); the stream restarts prefetching from there.
    auto out = miss(p, 1320);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 1320u + 64u);
}

TEST(DDet, FrequencyTableEvictsLru)
{
    auto p = make();
    // Touch more distinct strides than the table holds; none promoted.
    for (unsigned i = 1; i <= kEntries + 4; ++i) {
        miss(p, 100000u + i * 7919u); // irregular addresses
    }
    EXPECT_DOUBLE_EQ(p.stridesPromoted.value(), 0.0);
}

TEST(DDet, InterleavedStreamsBothDetected)
{
    auto p = make();
    // Two interleaved stride sequences (different bases and strides).
    Addr a = 10000, b = 500000;
    for (int i = 0; i < 6; ++i) {
        miss(p, a);
        miss(p, b);
        a += 96;
        b += 160;
    }
    EXPECT_TRUE(p.isCommonStride(96));
    EXPECT_TRUE(p.isCommonStride(160));
}
