/**
 * @file
 * Backpressure and resource-exhaustion paths: FLWB-full processor
 * stalls, SLWB(MSHR)-full refusals, the demand-reserved last slot, and
 * prefetch drops under pressure.
 */

#include <gtest/gtest.h>

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

} // namespace

TEST(Backpressure, FullFlwbStallsBurstyWriters)
{
    // A burst of writes to distinct remote blocks, far more than the
    // FLWB's 8 entries, must stall the processor (writeStall > 0) but
    // still complete and perform every write.
    MachineConfig cfg;
    cfg.numProcs = 4;
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 1); // remote page

    auto writer = [](apps::ThreadCtx &ctx, Addr b) -> Task {
        for (unsigned i = 0; i < 64; ++i)
            co_await ctx.write<std::uint64_t>(b + i * 32, i + 1);
    };
    sys.run(0, writer(sys.ctx(0), base));
    ASSERT_TRUE(sys.finish());

    EXPECT_GT(sys.m.node(0).cpu().writeStall.value(), 0.0);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(sys.m.store().load<std::uint64_t>(base + i * 32),
                  i + 1);
    sys.m.checkCoherenceInvariants();
}

TEST(Backpressure, TinySlwbForcesFlwbRetries)
{
    // With only 2 pending-transaction entries, a stream of write
    // misses exhausts the SLWB; the FLWB must retry (never drop) and
    // the run must still be correct.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.slwbEntries = 2;
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 1);

    auto writer = [](apps::ThreadCtx &ctx, Addr b) -> Task {
        for (unsigned i = 0; i < 48; ++i)
            co_await ctx.write<std::uint64_t>(b + i * 32, 7 * i + 1);
    };
    sys.run(0, writer(sys.ctx(0), base));
    ASSERT_TRUE(sys.finish());
    EXPECT_GT(sys.m.node(0).flwb().retries.value(), 0.0);
    for (unsigned i = 0; i < 48; ++i)
        EXPECT_EQ(sys.m.store().load<std::uint64_t>(base + i * 32),
                  7 * i + 1);
    sys.m.checkCoherenceInvariants();
}

TEST(Backpressure, PrefetchesNeverTakeTheLastSlwbSlot)
{
    // Sequential prefetching with a tiny SLWB: prefetches must be
    // dropped (pfDropNoSlot) rather than starve demand accesses, and
    // the workload still finishes.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.slwbEntries = 2;
    cfg.prefetch.scheme = PrefetchScheme::Sequential;
    cfg.prefetch.degree = 4;
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 1);

    auto reader = [](apps::ThreadCtx &ctx, Addr b) -> Task {
        for (unsigned i = 0; i < 128; ++i) {
            co_await ctx.read<std::uint64_t>(b + i * 32);
            co_await ctx.think(5);
        }
    };
    sys.run(0, reader(sys.ctx(0), base));
    ASSERT_TRUE(sys.finish());
    EXPECT_GT(sys.m.node(0).slc().pfDropNoSlot.value(), 0.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Backpressure, PendingPrefetchAbsorbsDuplicateCandidates)
{
    // Degree 4 with a fast trigger rate: the same block is proposed
    // repeatedly while its prefetch is still pending; those duplicates
    // must be dropped (pfDropPending), not double-allocated.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = PrefetchScheme::Sequential;
    cfg.prefetch.degree = 4;
    MiniSystem sys(cfg);
    Addr base = pageBase(cfg, 1);

    auto reader = [](apps::ThreadCtx &ctx, Addr b) -> Task {
        for (unsigned i = 0; i < 64; ++i)
            co_await ctx.read<std::uint64_t>(b + i * 32);
    };
    sys.run(0, reader(sys.ctx(0), base));
    ASSERT_TRUE(sys.finish());
    EXPECT_GT(sys.m.node(0).slc().pfDropPending.value(), 0.0);
}

TEST(Backpressure, LockHoldersBlockFlwbDrainsSafely)
{
    // Heavy lock contention with a full FLWB and a tiny SLWB: the
    // queue-based lock and the write buffers must not deadlock against
    // each other.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.slwbEntries = 2;
    MiniSystem sys(cfg);
    Addr counter = pageBase(cfg, 1);
    Addr lock = pageBase(cfg, 2);

    auto t = [](apps::ThreadCtx &ctx, Addr c, Addr l) -> Task {
        for (int i = 0; i < 10; ++i) {
            co_await ctx.lock(l);
            auto v = co_await ctx.read<std::uint64_t>(c);
            // Extra writes to distinct blocks, more than the FLWB's
            // entries, so the buffers fill inside the section.
            for (unsigned k = 1; k <= 12; ++k)
                co_await ctx.write<std::uint64_t>(c + 32 * k, v + k);
            co_await ctx.write<std::uint64_t>(c, v + 1);
            co_await ctx.unlock(l);
        }
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, t(sys.ctx(n), counter, lock));
    ASSERT_TRUE(sys.finish());
    EXPECT_EQ(sys.m.store().load<std::uint64_t>(counter), 40u);
    sys.m.checkCoherenceInvariants();
}
