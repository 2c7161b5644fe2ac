/**
 * @file
 * Unit and integration tests for adaptive sequential prefetching
 * (the paper's Section-6 extension).
 */

#include <gtest/gtest.h>

#include "core/adaptive.hh"
#include "harness.hh"

using namespace psim;
using namespace psim::test;

namespace
{

std::vector<Addr>
observe(Prefetcher &p, Addr addr, bool hit, bool tagged)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.addr = addr;
    obs.hit = hit;
    obs.taggedHit = tagged;
    p.observeRead(obs, out);
    return out;
}

constexpr unsigned kWindow = PrefetchConfig::adaptiveWindow;

} // namespace

TEST(Adaptive, StartsLikeSequential)
{
    AdaptiveSequentialPrefetcher p(32);
    auto out = observe(p, 0x1000, false, false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1020u);
    EXPECT_EQ(p.degree(), 1u);
}

TEST(Adaptive, LateUsefulWindowsRaiseTheDegree)
{
    AdaptiveSequentialPrefetcher p(32);
    for (unsigned i = 0; i < kWindow; ++i)
        p.notePrefetchOutcome(true, /*late=*/true);
    EXPECT_EQ(p.degree(), 2u);
    auto out = observe(p, 0x1000, false, false);
    EXPECT_EQ(out.size(), 2u);
}

TEST(Adaptive, TimelyUsefulWindowsKeepTheDegree)
{
    // Useful and on time: the lookahead is already sufficient, so the
    // degree must not grow (that would only waste bandwidth at
    // sequence ends).
    AdaptiveSequentialPrefetcher p(32);
    for (unsigned i = 0; i < 4 * kWindow; ++i)
        p.notePrefetchOutcome(true, /*late=*/false);
    EXPECT_EQ(p.degree(), 1u);
}

TEST(Adaptive, DegreeIsBounded)
{
    // Every window late and useful: one increase per window until the
    // degree reaches the bound, where further windows leave it.
    constexpr unsigned kMax = PrefetchConfig::adaptiveMaxDegree;
    AdaptiveSequentialPrefetcher p(32);
    for (unsigned w = 0; w < kMax + 2; ++w) {
        for (unsigned i = 0; i < kWindow; ++i)
            p.notePrefetchOutcome(true, /*late=*/true);
    }
    EXPECT_EQ(p.degree(), kMax);
    EXPECT_DOUBLE_EQ(p.increases.value(), kMax - 1.0);
    EXPECT_EQ(observe(p, 0x1000, false, false).size(), kMax);
}

TEST(Adaptive, UselessWindowsLowerTheDegreeToZero)
{
    AdaptiveSequentialPrefetcher p(32, 2);
    for (int w = 0; w < 4; ++w) {
        for (unsigned i = 0; i < kWindow; ++i)
            p.notePrefetchOutcome(false);
    }
    EXPECT_EQ(p.degree(), 0u);
    // Disabled: no candidates at all.
    EXPECT_TRUE(observe(p, 0x1000, false, false).empty());
    EXPECT_TRUE(observe(p, 0x2000, true, true).empty());
}

TEST(Adaptive, MixedWindowKeepsDegree)
{
    static_assert(kWindow == 16);
    AdaptiveSequentialPrefetcher p(32, 2);
    for (int i = 0; i < 10; ++i)
        p.notePrefetchOutcome(true);
    for (int i = 0; i < 6; ++i)
        p.notePrefetchOutcome(false);
    EXPECT_EQ(p.degree(), 2u); // 10/16 useful: between the thresholds
}

TEST(Adaptive, TaggedHitBackfillsBlocksSkippedByDegreeIncrease)
{
    // Regression: on a tagged hit the prefetcher used to fetch only
    // blk + degree blocks. After a degree increase d -> d+1 the stream
    // continuation therefore skipped the block at the old lookahead
    // distance, leaving a permanent hole that cost one demand miss per
    // increase on every active stream.
    AdaptiveSequentialPrefetcher p(32, /*initial*/2);
    auto out = observe(p, 0, false, false);
    ASSERT_EQ(out.size(), 2u); // miss at degree 2: blocks 32 and 64
    EXPECT_EQ(out[0], 32u);
    EXPECT_EQ(out[1], 64u);

    for (unsigned i = 0; i < kWindow; ++i)
        p.notePrefetchOutcome(true, /*late=*/true);
    ASSERT_EQ(p.degree(), 3u);

    // Stream continues at block 32. Block 96 (old degree-2 lookahead
    // from here) was never fetched; only backfilling emits it.
    out = observe(p, 32, true, true);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 96u);
    EXPECT_EQ(out[1], 128u);

    // Once compensated, steady state emits a single block again.
    out = observe(p, 64, true, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 160u);
}

TEST(Adaptive, DecreaseCancelsPendingBackfill)
{
    // An increase followed by a decrease nets out: the degree is back
    // where the stream left it, so there is no hole to backfill.
    AdaptiveSequentialPrefetcher p(32, 2);
    observe(p, 0, false, false);
    for (unsigned i = 0; i < kWindow; ++i)
        p.notePrefetchOutcome(true, /*late=*/true);
    ASSERT_EQ(p.degree(), 3u);
    for (unsigned i = 0; i < kWindow; ++i)
        p.notePrefetchOutcome(false);
    ASSERT_EQ(p.degree(), 2u);

    auto out = observe(p, 32, true, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 96u);
}

TEST(Adaptive, ProbesAgainAfterShutoff)
{
    constexpr unsigned kProbe = AdaptiveSequentialPrefetcher::kProbeMisses;
    AdaptiveSequentialPrefetcher p(32);
    for (unsigned i = 0; i < kWindow; ++i)
        p.notePrefetchOutcome(false);
    ASSERT_EQ(p.degree(), 0u);
    // The kProbeMisses-th miss while off re-enables degree 1.
    for (unsigned i = 0; i + 1 < kProbe; ++i)
        EXPECT_TRUE(observe(p, 0x1000 + 4096u * i, false, false).empty());
    EXPECT_EQ(p.degree(), 0u);
    auto out = observe(p, 0x1000 + 4096u * kProbe, false, false);
    EXPECT_EQ(p.degree(), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(p.reenables.value(), 1.0);
}

TEST(Adaptive, IntegrationRampsUpOnAStream)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = PrefetchScheme::Adaptive;
    MiniSystem sys(cfg);
    auto t = [](apps::ThreadCtx &ctx) -> Task {
        for (Addr a = 0x10000000; a < 0x10000000 + 16384; a += 32) {
            co_await ctx.read<double>(a);
            co_await ctx.think(40);
        }
    };
    sys.run(0, t(sys.ctx(0)));
    ASSERT_TRUE(sys.finish());

    const Slc &slc = sys.m.node(0).slc();
    // A clean unit-stride stream: misses nearly eliminated.
    EXPECT_LT(slc.demandReadMisses.value(), 16384.0 / 32.0 * 0.2);
    EXPECT_GT(static_cast<double>(slc.usefulPrefetches()) /
                      static_cast<double>(slc.pfIssued.value()),
              0.8);
}

TEST(Adaptive, IntegrationShutsOffOnRandomTraffic)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = PrefetchScheme::Adaptive;
    MachineConfig seq_cfg = cfg;
    seq_cfg.prefetch.scheme = PrefetchScheme::Sequential;

    // Random single reads over a large region: prefetching is pure
    // waste; the adaptive scheme must issue far fewer prefetches than
    // fixed sequential prefetching.
    auto traffic = [](apps::ThreadCtx &ctx) -> Task {
        for (int i = 0; i < 2000; ++i) {
            Addr a = 0x10000000 + (ctx.rng().below(1 << 20) & ~7ULL);
            co_await ctx.read<double>(a);
            co_await ctx.think(10);
        }
    };

    double issued[2];
    int idx = 0;
    for (const auto &c : {cfg, seq_cfg}) {
        MiniSystem sys(c);
        sys.run(0, traffic(sys.ctx(0)));
        ASSERT_TRUE(sys.finish());
        issued[idx++] = sys.m.node(0).slc().pfIssued.value();
    }
    EXPECT_LT(issued[0], issued[1] * 0.3)
            << "adaptive must throttle useless prefetching";
}
