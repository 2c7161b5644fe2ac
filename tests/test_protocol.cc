/**
 * @file
 * Directed tests of the full-map write-invalidate directory protocol,
 * release consistency, and the memory-side synchronization primitives,
 * driven end-to-end through real processor/cache models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness.hh"
#include "mem/mem_ctrl.hh"

using namespace psim;
using namespace psim::test;

namespace
{

MachineConfig
quadCfg()
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.meshCols = 4; // 4x1 mesh
    return cfg;
}

Addr
pageBase(const MachineConfig &cfg, unsigned page)
{
    return 0x10000000ULL + static_cast<Addr>(page) * cfg.pageSize;
}

} // namespace

TEST(Protocol, ReadSharingBuildsPresenceBits)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1); // homed at node 1
    sys.m.store().store<double>(x, 7.5);

    auto reader = [](apps::ThreadCtx &ctx, Addr a) -> Task {
        double v = co_await ctx.read<double>(a);
        EXPECT_DOUBLE_EQ(v, 7.5);
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, reader(sys.ctx(n), x));
    ASSERT_TRUE(sys.finish());

    auto snap = sys.m.node(1).mem().snapshot(cfg.blockAddr(x));
    EXPECT_EQ(snap.st, MemCtrl::DirSnapshot::St::Clean);
    EXPECT_EQ(snap.presence, 0xFu);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(sys.m.node(n).slc().stateOf(cfg.blockAddr(x)),
                  CohState::Shared);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, WriteInvalidatesAllSharers)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1);
    Addr bar = pageBase(cfg, 2);
    sys.m.store().store<double>(x, 1.0);

    auto thread = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.read<double>(a); // everyone shares the block
        co_await ctx.barrier(b);
        if (ctx.tid() == 0)
            co_await ctx.write<double>(a, 2.0);
        // The second barrier is a release: node 0's write must be
        // globally performed before anyone passes it.
        co_await ctx.barrier(b);
        double v = co_await ctx.read<double>(a);
        EXPECT_DOUBLE_EQ(v, 2.0);
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, thread(sys.ctx(n), x, bar));
    ASSERT_TRUE(sys.finish());

    // After the final reads the block is clean-shared again.
    auto snap = sys.m.node(1).mem().snapshot(cfg.blockAddr(x));
    EXPECT_EQ(snap.st, MemCtrl::DirSnapshot::St::Clean);
    EXPECT_GE(sys.m.node(1).mem().invalidationsSent.value(), 3.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, UpgradePathForSharedWriteHit)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1);

    auto thread = [](apps::ThreadCtx &ctx, Addr a) -> Task {
        co_await ctx.read<double>(a);   // S copy
        co_await ctx.write<double>(a, 3.0); // upgrade, not ReadEx
    };
    sys.run(0, thread(sys.ctx(0), x));
    ASSERT_TRUE(sys.finish());

    EXPECT_DOUBLE_EQ(sys.m.node(0).slc().upgrades.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.m.node(0).slc().writeMisses.value(), 0.0);
    EXPECT_EQ(sys.m.node(0).slc().stateOf(cfg.blockAddr(x)),
              CohState::Modified);
    auto snap = sys.m.node(1).mem().snapshot(cfg.blockAddr(x));
    EXPECT_EQ(snap.st, MemCtrl::DirSnapshot::St::Dirty);
    EXPECT_EQ(snap.owner, 0u);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, DirtyRemoteReadDowngradesOwner)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 2); // homed at node 2
    Addr bar = pageBase(cfg, 3);

    apps::ThreadCtx ctx0(sys.m, 0, 2), ctx1(sys.m, 1, 2);
    auto writer = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.write<double>(a, 9.25);
        co_await ctx.barrier(b);
    };
    auto reader = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.barrier(b);
        double v = co_await ctx.read<double>(a);
        EXPECT_DOUBLE_EQ(v, 9.25);
    };
    sys.run(1, writer(ctx1, x, bar));
    sys.run(0, reader(ctx0, x, bar));
    ASSERT_TRUE(sys.finish());

    EXPECT_EQ(sys.m.node(1).slc().stateOf(cfg.blockAddr(x)),
              CohState::Shared) << "owner downgraded by the fetch";
    EXPECT_EQ(sys.m.node(0).slc().stateOf(cfg.blockAddr(x)),
              CohState::Shared);
    auto snap = sys.m.node(2).mem().snapshot(cfg.blockAddr(x));
    EXPECT_EQ(snap.st, MemCtrl::DirSnapshot::St::Clean);
    EXPECT_EQ(snap.presence, 0x3u);
    EXPECT_DOUBLE_EQ(sys.m.node(2).mem().fetchesSent.value(), 1.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, WriteMissOnDirtyBlockInvalidatesOwner)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 2);
    Addr bar = pageBase(cfg, 3);

    apps::ThreadCtx ctx0(sys.m, 0, 2), ctx1(sys.m, 1, 2);
    auto first = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.write<double>(a, 1.0);
        co_await ctx.barrier(b);
    };
    auto second = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.barrier(b);
        co_await ctx.write<double>(a, 2.0);
        // Force completion before the task ends: a release.
        co_await ctx.barrier(b);
    };
    // The first thread participates in both barriers.
    auto first2 = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.write<double>(a, 1.0);
        co_await ctx.barrier(b);
        co_await ctx.barrier(b);
    };
    (void)first;
    sys.run(1, first2(ctx1, x, bar));
    sys.run(0, second(ctx0, x, bar));
    ASSERT_TRUE(sys.finish());

    EXPECT_EQ(sys.m.node(1).slc().stateOf(cfg.blockAddr(x)),
              CohState::Invalid);
    EXPECT_EQ(sys.m.node(0).slc().stateOf(cfg.blockAddr(x)),
              CohState::Modified);
    EXPECT_DOUBLE_EQ(sys.m.store().load<double>(x), 2.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, ConcurrentUpgradesSerializeToOneOwner)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1);
    Addr bar = pageBase(cfg, 3);

    auto thread = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.read<double>(a); // everyone S
        co_await ctx.barrier(b);
        co_await ctx.write<double>(a, 5.0); // all upgrade at once
        co_await ctx.barrier(b);
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, thread(sys.ctx(n), x, bar));
    ASSERT_TRUE(sys.finish());

    // Exactly one Modified copy; directory agrees; value correct.
    unsigned modified = 0;
    for (NodeId n = 0; n < 4; ++n) {
        if (sys.m.node(n).slc().stateOf(cfg.blockAddr(x)) ==
            CohState::Modified) {
            ++modified;
        }
    }
    EXPECT_EQ(modified, 1u);
    EXPECT_DOUBLE_EQ(sys.m.store().load<double>(x), 5.0);
    // At least one upgrade lost its copy mid-flight and was converted.
    EXPECT_GE(sys.m.node(1).mem().convertedUpgrades.value(), 1.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, LockProvidesMutualExclusion)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr counter = pageBase(cfg, 1);
    Addr lock = pageBase(cfg, 2);

    auto thread = [](apps::ThreadCtx &ctx, Addr cnt, Addr lk) -> Task {
        for (int i = 0; i < 25; ++i) {
            co_await ctx.lock(lk);
            double v = co_await ctx.read<double>(cnt);
            co_await ctx.write<double>(cnt, v + 1.0);
            co_await ctx.unlock(lk);
        }
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, thread(sys.ctx(n), counter, lock));
    ASSERT_TRUE(sys.finish());

    EXPECT_DOUBLE_EQ(sys.m.store().load<double>(counter), 100.0);
    EXPECT_DOUBLE_EQ(sys.m.node(cfg.homeOf(lock)).mem()
                             .locks().requests.value(), 100.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, BarrierIsAReleaseFence)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr flags = pageBase(cfg, 1);
    Addr bar = pageBase(cfg, 2);

    // Every node publishes a flag, crosses the barrier, and must then
    // observe every other node's flag.
    auto thread = [](apps::ThreadCtx &ctx, Addr f, Addr b) -> Task {
        co_await ctx.write<double>(f + ctx.tid() * 8, 1.0);
        co_await ctx.barrier(b);
        for (unsigned other = 0; other < ctx.nthreads(); ++other) {
            double v = co_await ctx.read<double>(f + other * 8);
            EXPECT_DOUBLE_EQ(v, 1.0) << "node " << ctx.tid()
                                     << " missed flag " << other;
        }
    };
    for (NodeId n = 0; n < 4; ++n)
        sys.run(n, thread(sys.ctx(n), flags, bar));
    ASSERT_TRUE(sys.finish());
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, FiniteSlcWritebackUpdatesHome)
{
    MachineConfig cfg = quadCfg();
    cfg.slcSize = 1024; // tiny: 32 blocks, conflict-heavy
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 0); // homed at node 0
    // Same SLC set as x: one conflicting block 1024 bytes away.
    Addr conflict = x + 1024;

    auto thread = [](apps::ThreadCtx &ctx, Addr a, Addr c) -> Task {
        co_await ctx.write<double>(a, 6.5); // M in SLC
        co_await ctx.read<double>(c);       // evicts a -> writeback
        double v = co_await ctx.read<double>(a); // re-fetch from home
        EXPECT_DOUBLE_EQ(v, 6.5);
    };
    sys.run(0, thread(sys.ctx(0), x, conflict));
    ASSERT_TRUE(sys.finish());

    EXPECT_GE(sys.m.node(0).slc().writebacks.value(), 1.0);
    EXPECT_GE(sys.m.node(0).mem().writebacksRecv.value(), 1.0);
    EXPECT_GE(sys.m.node(0).slc().missesReplacement.value(), 1.0);
    sys.m.checkCoherenceInvariants();
}

TEST(Protocol, ColdCoherenceReplacementClassification)
{
    MachineConfig cfg = quadCfg();
    MiniSystem sys(cfg);
    Addr x = pageBase(cfg, 1);
    Addr bar = pageBase(cfg, 3);

    apps::ThreadCtx ctx0(sys.m, 0, 2), ctx1(sys.m, 1, 2);
    auto reader = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.read<double>(a); // cold miss
        co_await ctx.barrier(b);
        co_await ctx.barrier(b); // writer invalidates in between
        co_await ctx.read<double>(a); // coherence miss
    };
    auto writer = [](apps::ThreadCtx &ctx, Addr a, Addr b) -> Task {
        co_await ctx.barrier(b);
        co_await ctx.write<double>(a, 1.0);
        co_await ctx.barrier(b); // release: write performed
    };
    sys.run(0, reader(ctx0, x, bar));
    sys.run(1, writer(ctx1, x, bar));
    ASSERT_TRUE(sys.finish());

    EXPECT_DOUBLE_EQ(sys.m.node(0).slc().missesCold.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.m.node(0).slc().missesCoherence.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.m.node(0).slc().missesReplacement.value(), 0.0);
}

TEST(Protocol, BusyEntryReplaysQueuedWritersInOrderWhileDirectoryGrows)
{
    // Fifteen writers take one block from its owner at staggered ticks,
    // so their read-exclusives reach the home in node order and queue
    // behind the busy entry. Meanwhile every writer sweeps a share of
    // 384 further blocks with the same home, growing its directory far
    // past the table's initial 64 slots while the queue is non-empty.
    MachineConfig cfg; // 16 nodes, 4x4 mesh
    cfg.audit = true;
    MiniSystem sys(cfg);
    const NodeId home = 1;
    const unsigned nodes = cfg.numProcs;
    Addr x = pageBase(cfg, home);
    Addr bar = pageBase(cfg, 2);
    std::vector<Addr> sweep;
    for (unsigned k = 1; k <= 3; ++k) {
        Addr page = pageBase(cfg, home + k * nodes);
        for (Addr a = page; a < page + cfg.pageSize; a += cfg.blockSize)
            sweep.push_back(a);
    }
    ASSERT_EQ(cfg.homeOf(sweep.back()), home);

    auto thread = [](apps::ThreadCtx &ctx, Addr a, Addr b,
                     const std::vector<Addr> &blocks) -> Task {
        if (ctx.tid() == 0)
            co_await ctx.write<double>(a, 0.0); // Dirty at node 0
        co_await ctx.barrier(b);
        if (ctx.tid() != 0) {
            co_await ctx.think(30 * ctx.tid());
            co_await ctx.write<double>(a, ctx.tid());
            for (std::size_t i = ctx.tid() - 1; i < blocks.size();
                 i += ctx.nthreads() - 1)
                co_await ctx.read<double>(blocks[i]);
        }
        co_await ctx.barrier(b);
    };
    for (NodeId n = 0; n < nodes; ++n)
        sys.run(n, thread(sys.ctx(n), x, bar, sweep));

    // Record every change of the block's owner, as the directory sees
    // it, stepping the machine one tick at a time and polling between
    // steps. The poll only reads state, so it cannot perturb the run.
    const MemCtrl &dir = sys.m.node(home).mem();
    std::vector<NodeId> owners;
    for (Tick t = 1;; ++t) {
        auto s = dir.snapshot(x);
        if (s.st == MemCtrl::DirSnapshot::St::Dirty &&
            (owners.empty() || owners.back() != s.owner))
            owners.push_back(s.owner);
        if (sys.m.allFinished() || t > 10000000)
            break;
        sys.m.run(t);
    }
    ASSERT_TRUE(sys.finish());

    std::vector<NodeId> expected(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        expected[n] = n;
    EXPECT_EQ(owners, expected);
    // Every writer but the first found the entry busy and queued.
    EXPECT_DOUBLE_EQ(dir.queuedAtBusyEntry.value(), nodes - 2.0);
    EXPECT_DOUBLE_EQ(dir.readExReqs.value(), double(nodes));
    EXPECT_DOUBLE_EQ(dir.readReqs.value(), double(sweep.size()));
    EXPECT_DOUBLE_EQ(sys.m.store().load<double>(x), nodes - 1.0);
    sys.m.checkCoherenceInvariants();
}
