/**
 * @file
 * The invariant-audit subsystem under fire: random mixed traffic on
 * every prefetching scheme with the audit enabled. The audit itself is
 * the oracle -- a lifecycle or coherence violation panics the run --
 * and the test re-asserts the conservation law from the outside.
 * Also a processor mis-count that the time law must catch, one death
 * test per prefetch-lifecycle detection, and unit tests for the
 * address-wraparound guard in candidate generation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/idet.hh"
#include "core/sequential.hh"
#include "harness.hh"
#include "sim/audit.hh"

using namespace psim;
using namespace psim::test;

namespace
{

Addr
pageBase(const MachineConfig &cfg, unsigned page)
{
    return 0x10000000ULL + static_cast<Addr>(page) * cfg.pageSize;
}

/**
 * One node's share of the chaos: a deterministic pseudo-random mix of
 * reads and writes over a shared region, a lock-protected counter
 * bump every 32 ops, and a closing barrier. Exercises prefetch
 * issue/merge/invalidate/replace, upgrades, SLWB pressure, the lock
 * controller and the barrier -- everything the audit watches.
 */
Task
chaos(apps::ThreadCtx &ctx, NodeId me, Addr region, unsigned blocks,
      unsigned ops, Addr lock, Addr counter, Addr bar)
{
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL * (me + 1);
    for (unsigned i = 0; i < ops; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        Addr a = region + ((lcg >> 33) % blocks) * 32;
        if ((lcg >> 13) & 1) {
            co_await ctx.write<std::uint64_t>(a, i);
        } else {
            co_await ctx.read<std::uint64_t>(a);
        }
        if (i % 32 == 31) {
            co_await ctx.lock(lock);
            std::uint64_t v = co_await ctx.read<std::uint64_t>(counter);
            co_await ctx.write<std::uint64_t>(counter, v + 1);
            co_await ctx.unlock(lock);
        }
        co_await ctx.think(1 + ((lcg >> 40) % 50));
    }
    co_await ctx.barrier(bar);
}

std::uint64_t
accountedFates(const Slc &slc)
{
    std::uint64_t sum = 0;
    for (std::size_t f = 1; f < audit::kNumFates; ++f)
        sum += slc.pf(static_cast<audit::Fate>(f)).value();
    return sum;
}

struct AuditParams
{
    PrefetchScheme scheme;
    unsigned slcSize; // 0 = infinite
};

} // namespace

class AuditChaos : public ::testing::TestWithParam<AuditParams>
{
};

TEST_P(AuditChaos, RandomTrafficPassesTheAudit)
{
    AuditParams p = GetParam();
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.audit = true;
    cfg.prefetch.scheme = p.scheme;
    cfg.slcSize = p.slcSize;

    MiniSystem sys(cfg);
    constexpr unsigned kBlocks = 128; // 4 KB shared region
    Addr region = pageBase(cfg, 0);
    Addr lock = pageBase(cfg, 20);
    Addr counter = pageBase(cfg, 21);
    Addr bar = pageBase(cfg, 22);
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        sys.run(n, chaos(sys.ctx(n), n, region, kBlocks, 400, lock,
                         counter, bar));
    }
    // Machine::run() executes the audit's finalize pass at quiesce:
    // any unsealed prefetch, fate/stat mismatch, message imbalance or
    // held lock panics before we get here.
    ASSERT_TRUE(sys.finish(50000000)) << "machine deadlocked";
    sys.m.checkCoherenceInvariants();

    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        const Slc &slc = sys.m.node(n).slc();
        EXPECT_EQ(accountedFates(slc), slc.pfIssued.value())
                << "node " << n;
    }
    // The lock-protected counter saw every increment.
    EXPECT_EQ(sys.m.store().load<std::uint64_t>(counter),
              cfg.numProcs * (400 / 32));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AuditChaos,
        ::testing::Values(
                AuditParams{PrefetchScheme::None, 0},
                AuditParams{PrefetchScheme::Sequential, 0},
                AuditParams{PrefetchScheme::Sequential, 2048},
                AuditParams{PrefetchScheme::IDet, 0},
                AuditParams{PrefetchScheme::IDet, 2048},
                AuditParams{PrefetchScheme::DDet, 2048},
                AuditParams{PrefetchScheme::Adaptive, 0},
                AuditParams{PrefetchScheme::Adaptive, 2048},
                AuditParams{PrefetchScheme::IDetLookahead, 2048}));

TEST(AuditDeath, CpuMiscountBreaksTheTimeLaw)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.audit = true;
    MiniSystem sys(cfg);
    Addr lock = pageBase(cfg, 1);
    auto t = [](apps::ThreadCtx &ctx, Addr l) -> Task {
        co_await ctx.lock(l);
        co_await ctx.write<std::uint64_t>(l + 32, 1);
        co_await ctx.unlock(l);
        co_await ctx.read<std::uint64_t>(l + 64);
        co_await ctx.think(7);
    };
    sys.run(0, t(sys.ctx(0), lock));
    // A processor that counts one load it never issued: its counters
    // no longer add up to its finish tick.
    ++sys.m.node(0).cpu().loads;
    EXPECT_DEATH(sys.finish(), "node 0 time law violated");
}

// One death test per NodeAudit detection, driven on a bare tracker.

constexpr Addr kBlk = 0x1040;

TEST(AuditDeath, SecondFateNamesBothFates)
{
    audit::NodeAudit na(3);
    na.onIssue(kBlk);
    na.onFate(kBlk, audit::Fate::UsefulTagged);
    EXPECT_DEATH(na.onFate(kBlk, audit::Fate::Replaced),
                 "node 3 audit: second fate 'replaced' \\(previous fate "
                 "'useful-tagged'\\) \\(block 0x1040\\)");
}

TEST(AuditDeath, FateWithoutAnIssue)
{
    audit::NodeAudit na(0);
    EXPECT_DEATH(na.onFate(kBlk, audit::Fate::Invalidated),
                 "fate 'invalidated' for a block that was never issued");
}

TEST(AuditDeath, IssueWhileAnotherIsLive)
{
    audit::NodeAudit na(0);
    na.onIssue(kBlk);
    EXPECT_DEATH(na.onIssue(kBlk),
                 "prefetch issued while a previous issue is still live");
}

TEST(AuditDeath, TaggedFillWithoutALiveIssue)
{
    audit::NodeAudit na(0);
    EXPECT_DEATH(na.checkTaggedFill(kBlk),
                 "prefetched tag set without a live recorded issue");
    // An issue whose fate is sealed is no longer live either.
    na.onIssue(kBlk);
    na.onFate(kBlk, audit::Fate::AgedUnused);
    EXPECT_DEATH(na.checkTaggedFill(kBlk),
                 "prefetched tag set without a live recorded issue");
}

TEST(AuditDeath, LiveIssueAtFinalize)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    MiniSystem sys(cfg);
    audit::NodeAudit na(0);
    na.onIssue(kBlk);
    EXPECT_DEATH(na.finalize(sys.m.node(0).slc()),
                 "issued prefetch never reached a terminal fate "
                 "\\(block 0x1040\\)");
}

TEST(AuditDeath, FinalizeCrossChecksTheStatistics)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    MiniSystem sys(cfg);
    Slc &slc = sys.m.node(0).slc();
    audit::NodeAudit na(0);
    na.onIssue(kBlk);
    na.onFate(kBlk, audit::Fate::UsefulTagged);
    EXPECT_DEATH(na.finalize(slc),
                 "issue count 1 disagrees with stat pfIssued 0");
    slc.pfIssued = 1;
    EXPECT_DEATH(na.finalize(slc),
                 "fate 'useful-tagged' counted 1 times but stat "
                 "pfUsefulTagged is 0");
}

TEST(AuditDeath, PrefetchTakesTheReservedSlwbSlot)
{
    audit::NodeAudit na(2);
    na.checkSlwb(15, 16, true, "prefetch allocation");
    EXPECT_DEATH(na.checkSlwb(16, 16, true, "prefetch allocation"),
                 "node 2: prefetch filled the SLWB slot reserved for "
                 "demand accesses \\(16/16, prefetch allocation\\)");
    // A demand admission may over-commit by one entry, never by two.
    na.checkSlwb(17, 16, false, "demand read allocation");
    EXPECT_DEATH(na.checkSlwb(18, 16, false, "demand read allocation"),
                 "node 2 SLWB occupancy 18 exceeds capacity 16");
}

TEST(WrapGuard, SequentialNearTopOfAddressSpace)
{
    // A degree-4 miss at the top of the address space: only the first
    // candidate fits; the other three would wrap to tiny addresses.
    SequentialPrefetcher pf(32, 4);
    Addr blk = std::numeric_limits<Addr>::max() - 63; // last-but-one blk
    std::vector<Addr> out;
    pf.observeRead(ReadObservation{0x100, blk, false, false}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], blk + 32);
    EXPECT_DOUBLE_EQ(pf.candidatesWrapped.value(), 3.0);
}

TEST(WrapGuard, IDetDownStrideBelowZero)
{
    // A descending stride sequence approaching address 0: candidates
    // below zero must be dropped, not wrapped to ~2^64 addresses.
    IDetPrefetcher pf(2, 32);
    std::vector<Addr> out;
    // Train stride -32: misses at 80, 48 (detects), 16 (steady).
    pf.observeRead(ReadObservation{0x200, 80, false, false}, out);
    EXPECT_TRUE(out.empty());
    pf.observeRead(ReadObservation{0x200, 48, false, false}, out);
    // Transient with stride -32: degree-2 candidates 16 and -16; the
    // second wraps and is dropped.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 16u);
    EXPECT_DOUBLE_EQ(pf.candidatesWrapped.value(), 1.0);
    out.clear();
    pf.observeRead(ReadObservation{0x200, 16, false, false}, out);
    // Steady at 16: both continuations (-16 and -48) wrap.
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(pf.candidatesWrapped.value(), 3.0);
}

TEST(WrapGuard, NoWrapOnOrdinaryStrides)
{
    SequentialPrefetcher pf(32, 8);
    std::vector<Addr> out;
    pf.observeRead(ReadObservation{0x100, 0x10000000, false, false},
                   out);
    EXPECT_EQ(out.size(), 8u);
    EXPECT_DOUBLE_EQ(pf.candidatesWrapped.value(), 0.0);
}
