/**
 * @file
 * Unit tests for the multi-stride table: per-PC stride ways, confidence
 * promotion, way aging under conflict, and single-stride degeneration.
 */

#include <gtest/gtest.h>

#include "core/mstride.hh"

using namespace psim;

namespace
{
constexpr Pc kPc = 0x4000;
}

TEST(MultiStride, AllocatesOnlyOnMiss)
{
    MultiStrideTable t;
    auto oc = t.observe(kPc, 1000, /*allocate_on_miss=*/false);
    EXPECT_FALSE(oc.entryHit);
    EXPECT_EQ(t.lookup(kPc), nullptr);

    oc = t.observe(kPc, 1000, true);
    EXPECT_FALSE(oc.entryHit);
    ASSERT_NE(t.lookup(kPc), nullptr);
    EXPECT_DOUBLE_EQ(t.allocations.value(), 1.0);
}

TEST(MultiStride, SingleStrideDegeneratesToClassicRpt)
{
    MultiStrideTable t;
    t.observe(kPc, 1000, true);
    auto oc = t.observe(kPc, 1064, true); // stride 64 installs, conf 1
    EXPECT_EQ(oc.count, 0u);
    oc = t.observe(kPc, 1128, true); // conf 2: confident
    ASSERT_EQ(oc.count, 1u);
    EXPECT_EQ(oc.strides[0], 64);
    EXPECT_DOUBLE_EQ(t.multiActive.value(), 0.0);
}

TEST(MultiStride, PromotesInterleavedStrides)
{
    // A column sweep with a row fix-up: deltas alternate +64, +8. The
    // classic single-stride RPT would thrash; here each delta holds its
    // own way and both become confident.
    MultiStrideTable t;
    Addr a = 1000;
    t.observe(kPc, a, true);
    MultiStrideTable::Outcome oc;
    for (int rep = 0; rep < 3; ++rep) {
        a += 64;
        oc = t.observe(kPc, a, true);
        a += 8;
        oc = t.observe(kPc, a, true);
    }
    // Both strides seen three times -> conf capped, both returned.
    ASSERT_EQ(oc.count, 2u);
    bool saw64 = false, saw8 = false;
    for (unsigned w = 0; w < oc.count; ++w) {
        saw64 |= oc.strides[w] == 64;
        saw8 |= oc.strides[w] == 8;
    }
    EXPECT_TRUE(saw64);
    EXPECT_TRUE(saw8);
    EXPECT_GT(t.multiActive.value(), 0.0);
}

TEST(MultiStride, FullWaysAgeInsteadOfEvicting)
{
    constexpr unsigned kWays = MultiStrideTable::kWays;
    MultiStrideTable t;
    // Establish stride 64 at conf 3 (cap) in way 0.
    Addr a = 1000;
    t.observe(kPc, a, true);
    for (int i = 0; i < 4; ++i)
        t.observe(kPc, a += 64, true);
    // Burst of distinct one-off deltas (8, 16, ...): the first ones
    // fill the free ways at conf 1, the next finds no free way and ages
    // every way rather than evicting the established stride.
    for (unsigned w = 1; w < kWays; ++w)
        t.observe(kPc, a += 8 * w, true);
    EXPECT_DOUBLE_EQ(t.wayEvictions.value(), 0.0);
    t.observe(kPc, a += 8 * kWays, true); // age: 64 -> 2, others -> 0
    EXPECT_DOUBLE_EQ(t.wayEvictions.value(), 1.0);
    auto oc = t.observe(kPc, a += 64, true); // 64 reinforced: conf 3
    ASSERT_EQ(oc.count, 1u);
    EXPECT_EQ(oc.strides[0], 64);
}

TEST(MultiStride, ZeroDeltaDoesNotDisturbWays)
{
    MultiStrideTable t;
    t.observe(kPc, 1000, true);
    t.observe(kPc, 1064, true);
    t.observe(kPc, 1064, true); // same address again: delta 0 ignored
    auto oc = t.observe(kPc, 1128, true);
    ASSERT_EQ(oc.count, 1u);
    EXPECT_EQ(oc.strides[0], 64);
}

TEST(MultiStride, PrefetcherEmitsDegreePerConfidentStride)
{
    // degree 2, block 32: a confident 64-byte stride on a miss yields
    // the next two stride steps.
    MultiStridePrefetcher pf(/*degree=*/2, /*block=*/32);
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = kPc;

    obs.addr = 0x1000;
    pf.observeRead(obs, out);
    obs.addr = 0x1040;
    pf.observeRead(obs, out);
    EXPECT_TRUE(out.empty()); // stride installed but not yet confident

    obs.addr = 0x1080;
    pf.observeRead(obs, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1080u + 64);
    EXPECT_EQ(out[1], 0x1080u + 128);
}

TEST(MultiStride, SubBlockStrideRoundsToOneBlock)
{
    // An 8-byte stride must still advance a whole block per step, like
    // I-detection's block-granularity phase.
    MultiStridePrefetcher pf(/*degree=*/1, /*block=*/32);
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = kPc;
    for (Addr a = 0x1000; a <= 0x1010; a += 8) {
        obs.addr = a;
        out.clear();
        pf.observeRead(obs, out);
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1010u + 32);
}

TEST(MultiStride, TaggedHitContinuesEveryConfidentStride)
{
    MultiStridePrefetcher pf(/*degree=*/2, /*block=*/32);
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = kPc;
    // Make strides +64 and +256 confident via interleaved misses.
    Addr a = 0x1000;
    obs.addr = a;
    pf.observeRead(obs, out);
    for (int rep = 0; rep < 3; ++rep) {
        obs.addr = (a += 64);
        out.clear();
        pf.observeRead(obs, out);
        obs.addr = (a += 256);
        out.clear();
        pf.observeRead(obs, out);
    }
    // A tagged hit asks for the continuation degree steps ahead, once
    // per confident stride.
    obs.hit = true;
    obs.taggedHit = true;
    obs.addr = (a += 64);
    out.clear();
    pf.observeRead(obs, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], obs.addr + 2 * 64);
    EXPECT_EQ(out[1], obs.addr + 2 * 256);
}
