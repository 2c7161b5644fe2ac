/**
 * @file
 * Integration tests of prefetching in the full machine: miss coverage
 * on streaming patterns, the 1-bit tagged-block mechanism, the
 * page-boundary rule, drop filtering, and non-binding semantics under
 * invalidations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness.hh"

using namespace psim;
using namespace psim::test;

namespace
{

Addr
pageBase(const MachineConfig &cfg, unsigned page)
{
    return 0x10000000ULL + static_cast<Addr>(page) * cfg.pageSize;
}

/** Stream linearly through [base, base+bytes) with the given stride. */
Task
streamReads(apps::ThreadCtx &ctx, Addr base, unsigned bytes,
            unsigned stride, unsigned think)
{
    for (Addr a = base; a < base + bytes; a += stride) {
        co_await ctx.read<double>(a);
        co_await ctx.think(think);
    }
}

MachineConfig
soloCfg(PrefetchScheme scheme)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = scheme;
    return cfg;
}

struct StreamResult
{
    double misses;
    double issued;
    double useful;
    double pageDrops;
    double inCacheDrops;
};

StreamResult
runStream(PrefetchScheme scheme, unsigned bytes, unsigned stride,
          unsigned think = 40)
{
    MachineConfig cfg = soloCfg(scheme);
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 0);
    sys.run(0, streamReads(sys.ctx(0), base, bytes, stride, think));
    EXPECT_TRUE(sys.finish());
    sys.m.checkCoherenceInvariants();
    const Slc &slc = sys.m.node(0).slc();
    return StreamResult{slc.demandReadMisses.value(),
                        slc.pfIssued.value(), slc.usefulPrefetches(),
                        slc.pfDropPageCross.value(),
                        slc.pfDropInCache.value()};
}

/** Sum of the terminal-fate buckets; must equal pfIssued at quiesce. */
double
accountedFates(const Slc &slc)
{
    return slc.pfUsefulTagged.value() + slc.pfUsefulLate.value() +
           slc.pfWriteHitTagged.value() +
           slc.pfUselessInvalidated.value() +
           slc.pfUselessReplaced.value() + slc.pfAgedUnused.value() +
           slc.pfUselessUnused.value();
}

} // namespace

TEST(PrefetchIntegration, BaselineIssuesNoPrefetches)
{
    auto r = runStream(PrefetchScheme::None, 4096, 8);
    EXPECT_DOUBLE_EQ(r.issued, 0.0);
    EXPECT_DOUBLE_EQ(r.misses, 4096.0 / 32.0); // one miss per block
}

TEST(PrefetchIntegration, SequentialCoversAUnitStrideStream)
{
    auto base = runStream(PrefetchScheme::None, 4096, 8);
    auto seq = runStream(PrefetchScheme::Sequential, 4096, 8);
    EXPECT_GT(seq.issued, 0.0);
    // Nearly every block after the first is covered.
    EXPECT_LT(seq.misses, base.misses * 0.15);
    EXPECT_GT(seq.useful / seq.issued, 0.85);
}

TEST(PrefetchIntegration, IDetCoversAUnitStrideStream)
{
    auto base = runStream(PrefetchScheme::None, 4096, 8);
    auto idet = runStream(PrefetchScheme::IDet, 4096, 8);
    EXPECT_LT(idet.misses, base.misses * 0.25);
    EXPECT_GT(idet.useful / idet.issued, 0.85);
}

TEST(PrefetchIntegration, IDetCoversALargeStrideStream)
{
    // Stride of 672 bytes (Water's 21 blocks): sequential prefetching
    // fetches dead blocks here, I-detection follows the stride.
    auto base = runStream(PrefetchScheme::None, 65536, 672);
    auto idet = runStream(PrefetchScheme::IDet, 65536, 672);
    auto seq = runStream(PrefetchScheme::Sequential, 65536, 672);
    EXPECT_LT(idet.misses, base.misses * 0.35);
    // Sequential prefetching cannot remove these misses...
    EXPECT_GT(seq.misses, base.misses * 0.8);
    // ...and its prefetches are mostly useless.
    EXPECT_LT(seq.useful / seq.issued, 0.2);
}

TEST(PrefetchIntegration, DDetCoversAStrideStreamAfterDetection)
{
    auto base = runStream(PrefetchScheme::None, 65536, 672);
    auto ddet = runStream(PrefetchScheme::DDet, 65536, 672);
    EXPECT_LT(ddet.misses, base.misses * 0.5);
}

TEST(PrefetchIntegration, NoPrefetchAcrossPageBoundary)
{
    // Stream across 4 pages: every prefetch candidate that would leave
    // the triggering access's page must be dropped.
    for (auto scheme : {PrefetchScheme::Sequential, PrefetchScheme::IDet,
                        PrefetchScheme::DDet}) {
        MachineConfig cfg = soloCfg(scheme);
        MiniSystem sys(cfg);
        Addr base = pageBase(cfg, 0);
        sys.run(0, streamReads(sys.ctx(0), base, 4 * cfg.pageSize, 32,
                               40));
        ASSERT_TRUE(sys.finish());
        const Slc &slc = sys.m.node(0).slc();
        EXPECT_GE(slc.pfDropPageCross.value(), 3.0)
                << "scheme " << static_cast<int>(scheme);
        // The first block of every page after the first is always a
        // demand miss (prefetching may not cross into it).
        EXPECT_GE(slc.demandReadMisses.value(), 4.0);
    }
}

TEST(PrefetchIntegration, CachedBlocksAreNotPrefetched)
{
    MachineConfig cfg = soloCfg(PrefetchScheme::Sequential);
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 0);
    auto t = [](apps::ThreadCtx &ctx, Addr b) -> Task {
        // Demand-read the even blocks (each miss prefetches the odd
        // block after it), then read the odd blocks: those tagged hits
        // ask for the even blocks, which are already cached, so the
        // candidates must be dropped rather than sent.
        for (Addr a = b; a < b + 2048; a += 64) {
            co_await ctx.read<double>(a);
            co_await ctx.think(60);
        }
        for (Addr a = b + 32; a < b + 2048; a += 64) {
            co_await ctx.read<double>(a);
            co_await ctx.think(60);
        }
    };
    sys.run(0, t(sys.ctx(0), base));
    ASSERT_TRUE(sys.finish());
    EXPECT_GT(sys.m.node(0).slc().pfDropInCache.value(), 0.0);
}

TEST(PrefetchIntegration, PrefetchedBlocksAreNonBinding)
{
    // Node 0 prefetches into a stream; node 1 then writes one of the
    // prefetched blocks before node 0 reaches it. Node 0 must see the
    // new value: the prefetch is non-binding.
    MachineConfig cfg = soloCfg(PrefetchScheme::Sequential);
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 0);
    Addr bar = pageBase(cfg, 1);
    Addr target = base + 8 * 32; // block 8 of the stream

    apps::ThreadCtx ctx0(sys.m, 0, 2), ctx1(sys.m, 1, 2);
    auto consumer = [](apps::ThreadCtx &ctx, Addr b, Addr t,
                       Addr bb) -> Task {
        // Start the stream so blocks ahead get prefetched.
        for (Addr a = b; a < b + 4 * 32; a += 32) {
            co_await ctx.read<double>(a);
            co_await ctx.think(30);
        }
        co_await ctx.barrier(bb); // writer strikes here
        co_await ctx.barrier(bb);
        double v = co_await ctx.read<double>(t);
        EXPECT_DOUBLE_EQ(v, 99.0) << "stale prefetched data observed";
    };
    auto writer = [](apps::ThreadCtx &ctx, Addr t, Addr bb) -> Task {
        co_await ctx.barrier(bb);
        co_await ctx.write<double>(t, 99.0);
        co_await ctx.barrier(bb); // release
    };
    sys.run(0, consumer(ctx0, base, target, bar));
    sys.run(1, writer(ctx1, target, bar));
    ASSERT_TRUE(sys.finish());
    sys.m.checkCoherenceInvariants();
}

TEST(PrefetchIntegration, TaggedHitAccountingBalances)
{
    MachineConfig cfg = soloCfg(PrefetchScheme::Sequential);
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 0);
    sys.run(0, streamReads(sys.ctx(0), base, 4096, 32, 40));
    ASSERT_TRUE(sys.finish());
    const Slc &slc = sys.m.node(0).slc();
    // Every issued prefetch ends in exactly one bucket by the end of
    // the run (the machine is quiescent).
    EXPECT_DOUBLE_EQ(accountedFates(slc), slc.pfIssued.value());
}

TEST(PrefetchIntegration, BaselineEfficiencyIsNaN)
{
    // 0 useful out of 0 issued is not an efficiency of 1.0 -- the
    // baseline must not look like a flawless prefetcher.
    MachineConfig cfg = soloCfg(PrefetchScheme::None);
    MiniSystem sys(cfg);
    sys.run(0, streamReads(sys.ctx(0), pageBase(cfg, 0), 1024, 32, 40));
    ASSERT_TRUE(sys.finish());
    RunMetrics mx = sys.m.metrics();
    EXPECT_DOUBLE_EQ(mx.pfIssued, 0.0);
    EXPECT_TRUE(std::isnan(mx.prefetchEfficiency()));
}

TEST(PrefetchIntegration, AgedPrefetchesGetASingleFate)
{
    // Adaptive prefetching with a stream that never touches the
    // prefetched blocks: read every other block, so each miss fetches
    // an intermediate block that goes stale in the aging ring. Those
    // blocks must end up in pfAgedUnused -- and only there; before the
    // fix they were counted aged AND again at the end of the run.
    MachineConfig cfg = soloCfg(PrefetchScheme::Adaptive);
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 0);
    sys.run(0, streamReads(sys.ctx(0), base, 8192, 64, 40));
    ASSERT_TRUE(sys.finish());
    const Slc &slc = sys.m.node(0).slc();
    EXPECT_GT(slc.pfAgedUnused.value(), 0.0);
    EXPECT_DOUBLE_EQ(accountedFates(slc), slc.pfIssued.value());
}

TEST(PrefetchIntegration, UpgradesDoNotConsumeSlwbSlots)
{
    // An upgrade MSHR buffers no data -- it waits for an ack -- so it
    // must not count against the SLWB entry budget. With a 3-entry
    // SLWB, an in-flight upgrade plus a demand miss used to trip the
    // reserve rule and drop the miss's prefetch; the unified occupancy
    // rule keeps the slot available.
    MachineConfig cfg = soloCfg(PrefetchScheme::Sequential);
    cfg.slwbEntries = 3;
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1); // page 1: home is node 1, so the
                               // upgrade ack takes a mesh round trip
    auto t = [](apps::ThreadCtx &ctx, Addr x) -> Task {
        co_await ctx.read<double>(x); // miss; prefetches x+32
        co_await ctx.think(100);      // both fills complete
        co_await ctx.write<double>(x, 1.0); // shared -> upgrade in flight
        co_await ctx.read<double>(x + 64);  // miss while upgrade pending
        co_await ctx.think(200);
    };
    sys.run(0, t(sys.ctx(0), x));
    ASSERT_TRUE(sys.finish());
    const Slc &slc = sys.m.node(0).slc();
    EXPECT_GE(slc.upgrades.value(), 1.0);
    EXPECT_GE(slc.pfIssued.value(), 2.0);
    EXPECT_DOUBLE_EQ(slc.pfDropNoSlot.value(), 0.0);
}

TEST(PrefetchIntegration, FiniteSlcStillBenefitsFromPrefetching)
{
    MachineConfig base_cfg = soloCfg(PrefetchScheme::None);
    base_cfg.slcSize = 16384; // the paper's Section 5.3 SLC
    MachineConfig pf_cfg = base_cfg;
    pf_cfg.prefetch.scheme = PrefetchScheme::Sequential;

    double misses[2];
    int i = 0;
    for (const auto &cfg : {base_cfg, pf_cfg}) {
        auto t = [](apps::ThreadCtx &ctx, Addr bb) -> Task {
            // Two sweeps over 64 KB: far larger than the SLC, so the
            // second sweep is all replacement misses.
            for (int pass = 0; pass < 2; ++pass) {
                for (Addr a = bb; a < bb + 65536; a += 32) {
                    co_await ctx.read<double>(a);
                    co_await ctx.think(40);
                }
            }
        };
        MiniSystem s(cfg);
        s.run(0, t(s.ctx(0), pageBase(cfg, 0)));
        ASSERT_TRUE(s.finish());
        misses[i++] = s.m.node(0).slc().demandReadMisses.value();
    }
    EXPECT_LT(misses[1], misses[0] * 0.2)
            << "sequential prefetching must cover replacement misses";
}

TEST(PrefetchIntegration, DescendingStreamsAreCovered)
{
    // Negative strides: I-detection must follow a descending column
    // scan just as well as an ascending one.
    MachineConfig cfg = soloCfg(PrefetchScheme::IDet);
    MiniSystem sys(cfg);
    Addr top = pageBase(cfg, 0) + 4064; // last block of the page
    auto t = [](apps::ThreadCtx &ctx, Addr start) -> Task {
        for (Addr a = start; a >= start - 96 * 32; a -= 32) {
            co_await ctx.read<double>(a);
            co_await ctx.think(40);
        }
    };
    // Start high enough inside a page that the whole stream fits.
    MachineConfig big = cfg;
    big.pageSize = 16384;
    MiniSystem sys2(big);
    Addr start = 0x10000000 + 16384 - 32;
    sys2.run(0, t(sys2.ctx(0), start));
    ASSERT_TRUE(sys2.finish());
    const Slc &slc = sys2.m.node(0).slc();
    EXPECT_LT(slc.demandReadMisses.value(), 97 * 0.3);
    EXPECT_GT(slc.usefulPrefetches() / slc.pfIssued.value(), 0.8);
    (void)sys;
    (void)top;
}

// ---- pushCandidate edge cases ----

namespace
{

/** Exposes the protected candidate filter for direct testing. */
struct PushProbe : Prefetcher
{
    void
    observeRead(const ReadObservation &, std::vector<Addr> &) override
    {
    }

    using Prefetcher::pushCandidate;
};

} // namespace

TEST(PushCandidate, Int64MinOffsetDoesNotOverflowNegation)
{
    PushProbe p;
    std::vector<Addr> out;
    // Negating INT64_MIN is UB if done naively; the magnitude 2^63
    // must still compare correctly against the base.
    p.pushCandidate(0x1000, std::numeric_limits<std::int64_t>::min(),
            out);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(p.candidatesWrapped.value(), 1.0);

    // A base of exactly 2^63 makes the full down-stride legal.
    p.pushCandidate(static_cast<Addr>(1) << 63,
            std::numeric_limits<std::int64_t>::min(), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_DOUBLE_EQ(p.candidatesWrapped.value(), 1.0);
}

TEST(PushCandidate, ZeroBaseDropsAnyDownStride)
{
    PushProbe p;
    std::vector<Addr> out;
    p.pushCandidate(0, -1, out);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(p.candidatesWrapped.value(), 1.0);

    p.pushCandidate(0, 0, out);
    p.pushCandidate(0, 32, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 32u);
}

TEST(PushCandidate, TopOfAddressSpaceDropsAnyUpStride)
{
    PushProbe p;
    std::vector<Addr> out;
    const Addr top = std::numeric_limits<Addr>::max();
    p.pushCandidate(top, 1, out);
    p.pushCandidate(top, std::numeric_limits<std::int64_t>::max(), out);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(p.candidatesWrapped.value(), 2.0);

    p.pushCandidate(top, 0, out);
    p.pushCandidate(top, -32, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], top);
    EXPECT_EQ(out[1], top - 32);
}
