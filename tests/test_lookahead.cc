/**
 * @file
 * Unit and integration tests for the lookahead I-detection variant
 * (the Baer/Chen mechanism the paper discusses in Section 6).
 */

#include <gtest/gtest.h>

#include "core/idet.hh"
#include "harness.hh"

using namespace psim;
using namespace psim::test;

namespace
{

std::vector<Addr>
observe(Prefetcher &p, Pc pc, Addr addr, bool hit)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    obs.hit = hit;
    p.observeRead(obs, out);
    return out;
}

} // namespace

TEST(IDetLookahead, PrefetchesLookaheadStridesAhead)
{
    IDetPrefetcher p(1, 32, /*lookahead=*/3);
    observe(p, 0x100, 0x1000, false);
    auto out = observe(p, 0x100, 0x1040, false); // stride 64
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u + 3u * 64u);
}

TEST(IDetLookahead, FiresOnPlainHitsToo)
{
    // Unlike the tagged-continuation scheme, the lookahead PC issues
    // prefetches regardless of whether the current access hit.
    IDetPrefetcher p(1, 32, /*lookahead=*/2);
    observe(p, 0x100, 0x1000, false);
    observe(p, 0x100, 0x1020, false);
    auto out = observe(p, 0x100, 0x1040, true); // SLC hit
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u + 2u * 32u);
}

TEST(IDetLookahead, SubBlockStridesAdvanceWholeBlocks)
{
    IDetPrefetcher p(1, 32, /*lookahead=*/2);
    observe(p, 0x100, 0x1000, false);
    auto out = observe(p, 0x100, 0x1008, false); // 8-byte stride
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1008u + 2u * 32u);
}

TEST(IDetLookahead, StopsInNoPrefState)
{
    IDetPrefetcher p(1, 32, /*lookahead=*/2);
    observe(p, 0x100, 1000, false);
    observe(p, 0x100, 2000, false);
    observe(p, 0x100, 9000, false);
    observe(p, 0x100, 30000, false); // no-pref
    EXPECT_TRUE(observe(p, 0x100, 70000, false).empty());
}

TEST(IDetLookahead, IntegrationCoversAStream)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = PrefetchScheme::IDetLookahead;
    MiniSystem sys(cfg);
    auto t = [](apps::ThreadCtx &ctx) -> Task {
        for (Addr a = 0x10000000; a < 0x10000000 + 8192; a += 32) {
            co_await ctx.read<double>(a);
            co_await ctx.think(40);
        }
    };
    sys.run(0, t(sys.ctx(0)));
    ASSERT_TRUE(sys.finish());
    const Slc &slc = sys.m.node(0).slc();
    EXPECT_LT(slc.demandReadMisses.value(), 8192.0 / 32.0 * 0.25);
    sys.m.checkCoherenceInvariants();
}

TEST(IDetLookahead, SchemeParsesAndBuilds)
{
    MachineConfig cfg;
    cfg.prefetch.scheme = parseScheme("idet-la");
    EXPECT_EQ(cfg.prefetch.scheme, PrefetchScheme::IDetLookahead);
    std::unique_ptr<Prefetcher> p = Prefetcher::create(cfg);
    ASSERT_NE(dynamic_cast<IDetPrefetcher *>(p.get()), nullptr);
    // Only the lookahead variant prefetches on a plain (untagged) hit.
    observe(*p, 0x100, 0x1000, false);
    observe(*p, 0x100, 0x1020, false);
    EXPECT_FALSE(observe(*p, 0x100, 0x1040, true).empty());
}
