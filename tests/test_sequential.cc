/**
 * @file
 * Unit tests for sequential prefetching (Section 3.4) and the null
 * (baseline) prefetcher.
 */

#include <gtest/gtest.h>

#include "core/adaptive.hh"
#include "core/chase.hh"
#include "core/ddet.hh"
#include "core/idet.hh"
#include "core/mstride.hh"
#include "core/prefetcher.hh"
#include "core/ptron.hh"
#include "core/sequential.hh"

using namespace psim;

namespace
{

std::vector<Addr>
observe(Prefetcher &p, Addr addr, bool hit, bool tagged, Pc pc = 0x100)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    obs.hit = hit;
    obs.taggedHit = tagged;
    p.observeRead(obs, out);
    return out;
}

/** Does the factory build a @p T for @p scheme? */
template <typename T>
bool
builds(PrefetchScheme scheme)
{
    MachineConfig cfg;
    cfg.prefetch.scheme = scheme;
    std::unique_ptr<Prefetcher> p = Prefetcher::create(cfg);
    return dynamic_cast<T *>(p.get()) != nullptr;
}

} // namespace

TEST(Sequential, MissPrefetchesNextDBlocks)
{
    SequentialPrefetcher p(32, 3);
    auto out = observe(p, 0x1008, false, false);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x1020u);
    EXPECT_EQ(out[1], 0x1040u);
    EXPECT_EQ(out[2], 0x1060u);
}

TEST(Sequential, DegreeOnePrefetchesOneBlock)
{
    SequentialPrefetcher p(32, 1);
    auto out = observe(p, 0x2000, false, false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x2020u);
}

TEST(Sequential, TaggedHitPrefetchesDBlocksAhead)
{
    SequentialPrefetcher p(32, 2);
    auto out = observe(p, 0x3010, true, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x3040u); // block(0x3010) + d blocks
}

TEST(Sequential, PlainHitPrefetchesNothing)
{
    SequentialPrefetcher p(32, 4);
    EXPECT_TRUE(observe(p, 0x3000, true, false).empty());
}

TEST(Sequential, IgnoresPcEntirely)
{
    SequentialPrefetcher p(32, 1);
    auto a = observe(p, 0x1000, false, false, 0x10);
    auto b = observe(p, 0x1000, false, false, 0x20);
    EXPECT_EQ(a, b);
}

TEST(Sequential, IsStatelessAcrossObservations)
{
    SequentialPrefetcher p(32, 1);
    observe(p, 0x9000, false, false);
    auto out = observe(p, 0x1000, false, false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1020u);
}

TEST(NullPrefetcher, NeverPrefetches)
{
    NullPrefetcher p;
    EXPECT_TRUE(observe(p, 0x1000, false, false).empty());
    EXPECT_TRUE(observe(p, 0x1000, true, true).empty());
}

TEST(PrefetcherFactory, BuildsConfiguredScheme)
{
    using S = PrefetchScheme;
    EXPECT_TRUE(builds<NullPrefetcher>(S::None));
    EXPECT_TRUE(builds<SequentialPrefetcher>(S::Sequential));
    EXPECT_TRUE(builds<IDetPrefetcher>(S::IDet));
    EXPECT_TRUE(builds<DDetPrefetcher>(S::DDet));
    EXPECT_TRUE(builds<AdaptiveSequentialPrefetcher>(S::Adaptive));
    EXPECT_TRUE(builds<IDetPrefetcher>(S::IDetLookahead));
    EXPECT_TRUE(builds<MultiStridePrefetcher>(S::MultiStride));
    EXPECT_TRUE(builds<ChasePrefetcher>(S::PtrChase));
    EXPECT_TRUE(builds<PerceptronFilter>(S::Perceptron));
    EXPECT_FALSE(builds<NullPrefetcher>(S::Sequential));

    // Chase runs on a sequential base: a cold miss at B carries no
    // content, so its one candidate is sequential's B + one block.
    MachineConfig cfg;
    cfg.prefetch.scheme = PrefetchScheme::PtrChase;
    std::unique_ptr<Prefetcher> p = Prefetcher::create(cfg);
    auto out = observe(*p, 0x4000, false, false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x4000u + cfg.blockSize);
}

// The I-det prefetcher end-to-end on an 8-byte-stride stream as the SLC
// would present it after FLC filtering (one access per block).

TEST(IDet, BlockStrideStreamPrefetchesNextBlock)
{
    IDetPrefetcher p(1, 32);
    EXPECT_TRUE(observe(p, 0x1000, false, false).empty()); // alloc
    auto out = observe(p, 0x1020, false, false); // stride 32 detected
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
    // Tagged hit continues the chain one block further.
    out = observe(p, 0x1040, true, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1060u);
}

TEST(IDet, SubBlockStrideAdvancesWholeBlocks)
{
    IDetPrefetcher p(1, 32);
    observe(p, 0x1000, false, false);
    auto out = observe(p, 0x1008, false, false); // stride 8 bytes
    ASSERT_EQ(out.size(), 1u);
    // Sub-block strides round up to one whole block.
    EXPECT_EQ(out[0], 0x1028u);
}

TEST(IDet, LargeStridePrefetchesFarBlock)
{
    IDetPrefetcher p(1, 32);
    observe(p, 0x10000, false, false);
    auto out = observe(p, 0x102A0, false, false); // stride 672 = 21 blocks
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x102A0u + 672u);
}

TEST(IDet, DegreePrefetchesDStridesOnRestart)
{
    IDetPrefetcher p(4, 32);
    observe(p, 0x1000, false, false);
    auto out = observe(p, 0x1040, false, false); // stride 64
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0x1080u);
    EXPECT_EQ(out[3], 0x1140u);
}

TEST(IDet, NoPrefetchAfterThreeMisses)
{
    IDetPrefetcher p(1, 32);
    observe(p, 1000, false, false);
    observe(p, 2000, false, false);
    observe(p, 9000, false, false);  // incorrect -> transient
    observe(p, 30000, false, false); // incorrect -> no-pref
    auto out = observe(p, 70000, false, false);
    EXPECT_TRUE(out.empty()) << "no-pref state must not prefetch";
}

TEST(IDet, PlainUntaggedHitDoesNotPrefetch)
{
    IDetPrefetcher p(1, 32);
    observe(p, 0x1000, false, false);
    observe(p, 0x1020, false, false);
    auto out = observe(p, 0x1040, true, false);
    EXPECT_TRUE(out.empty());
}
