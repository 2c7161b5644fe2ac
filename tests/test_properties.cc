/**
 * @file
 * Property-based tests: randomized multi-processor traffic, across
 * seeds and configurations, must always terminate, keep the coherence
 * invariants, and (where a functional oracle exists) compute correct
 * values.
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

/**
 * Random reads and owner-partitioned writes over a small shared
 * region. Each node only writes its own slice (so the run is
 * data-race-free) but reads everywhere; a per-slice write counter
 * gives a functional oracle.
 */
Task
chaosThread(apps::ThreadCtx &ctx, Addr region, unsigned blocks,
            unsigned ops, Addr bar)
{
    const unsigned nproc = ctx.nthreads();
    const unsigned slice = blocks / nproc;
    const Addr my_slice = region + static_cast<Addr>(ctx.tid()) *
                                  slice * 32;
    unsigned my_writes = 0;

    for (unsigned i = 0; i < ops; ++i) {
        std::uint64_t r = ctx.rng().next();
        if (r % 4 == 0) {
            // Write somewhere in the owned slice.
            Addr a = my_slice + (r >> 8) % slice * 32;
            ++my_writes;
            co_await ctx.write<std::uint64_t>(a, my_writes);
        } else {
            // Read anywhere in the region.
            Addr a = region + (r >> 8) % blocks * 32;
            co_await ctx.read<std::uint64_t>(a);
        }
        if (r % 64 == 0)
            co_await ctx.think(1 + r % 17);
    }
    co_await ctx.barrier(bar);
}

struct ChaosParams
{
    std::uint64_t seed;
    PrefetchScheme scheme;
    unsigned slcSize;        // 0 = infinite
    bool migratory = false;  // directory migratory optimization
    bool sc = false;         // sequential consistency
};

} // namespace

class CoherenceChaos : public ::testing::TestWithParam<ChaosParams>
{
};

TEST_P(CoherenceChaos, InvariantsHoldUnderRandomTraffic)
{
    ChaosParams p = GetParam();
    MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.meshCols = 4;
    cfg.seed = p.seed;
    cfg.prefetch.scheme = p.scheme;
    cfg.slcSize = p.slcSize;
    cfg.migratoryOpt = p.migratory;
    cfg.sequentialConsistency = p.sc;

    MiniSystem sys(cfg);
    constexpr unsigned kBlocks = 256; // 8 KB shared region
    Addr region = pageBase(cfg, 0);
    Addr bar = pageBase(cfg, 40);
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        sys.run(n, chaosThread(sys.ctx(n), region, kBlocks, 600, bar));
    }
    ASSERT_TRUE(sys.finish(50000000)) << "machine deadlocked";
    sys.m.checkCoherenceInvariants();

    // Prefetch accounting: at quiesce every issued prefetch has ended
    // in exactly one outcome bucket, for every scheme and cache size.
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        const Slc &slc = sys.m.node(n).slc();
        std::uint64_t accounted = 0;
        for (std::size_t f = 1; f < audit::kNumFates; ++f)
            accounted += slc.pf(static_cast<audit::Fate>(f)).value();
        EXPECT_EQ(accounted, slc.pfIssued.value())
                << "node " << n;
    }

    // Functional oracle: the last value written to each slice block is
    // whatever the owner wrote there; the backing store must reflect a
    // value each owner actually wrote (bounded by its write count).
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        unsigned slice = kBlocks / cfg.numProcs;
        for (unsigned b = 0; b < slice; ++b) {
            Addr a = region + (static_cast<Addr>(n) * slice + b) * 32;
            std::uint64_t v = sys.m.store().load<std::uint64_t>(a);
            EXPECT_LE(v, 600u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSchemes, CoherenceChaos,
        ::testing::Values(
                ChaosParams{1, PrefetchScheme::None, 0},
                ChaosParams{2, PrefetchScheme::None, 4096},
                ChaosParams{3, PrefetchScheme::Sequential, 0},
                ChaosParams{4, PrefetchScheme::Sequential, 4096},
                ChaosParams{5, PrefetchScheme::IDet, 0},
                ChaosParams{6, PrefetchScheme::IDet, 4096},
                ChaosParams{7, PrefetchScheme::DDet, 0},
                ChaosParams{8, PrefetchScheme::DDet, 4096},
                ChaosParams{9, PrefetchScheme::Sequential, 1024},
                ChaosParams{10, PrefetchScheme::IDet, 1024},
                ChaosParams{11, PrefetchScheme::Adaptive, 0},
                ChaosParams{12, PrefetchScheme::Adaptive, 4096},
                ChaosParams{13, PrefetchScheme::IDetLookahead, 0},
                ChaosParams{14, PrefetchScheme::IDetLookahead, 2048},
                ChaosParams{15, PrefetchScheme::Sequential, 0, true},
                ChaosParams{16, PrefetchScheme::IDet, 4096, true},
                ChaosParams{17, PrefetchScheme::Sequential, 0, false,
                            true},
                ChaosParams{18, PrefetchScheme::None, 2048, true,
                            true}));

// Lock-protected increments with random contention: the count is exact
// regardless of scheme and cache size (tests lock + RC end to end).
class LockChaos : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LockChaos, CountersAreExact)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.meshCols = 4;
    cfg.seed = GetParam();
    cfg.slcSize = GetParam() % 2 ? 0 : 4096;
    cfg.prefetch.scheme = PrefetchScheme::Sequential;

    MiniSystem sys(cfg);
    Addr counters = pageBase(cfg, 0); // 4 counters in distinct blocks
    Addr locks = pageBase(cfg, 1);

    auto t = [](apps::ThreadCtx &ctx, Addr cnts, Addr lks) -> Task {
        for (int i = 0; i < 30; ++i) {
            unsigned which = static_cast<unsigned>(ctx.rng().below(4));
            Addr c = cnts + which * 32;
            Addr l = lks + which * 32;
            co_await ctx.lock(l);
            auto v = co_await ctx.read<std::uint64_t>(c);
            co_await ctx.write<std::uint64_t>(c, v + 1);
            co_await ctx.unlock(l);
        }
    };
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        sys.run(n, t(sys.ctx(n), counters, locks));
    ASSERT_TRUE(sys.finish(50000000));

    std::uint64_t total = 0;
    for (unsigned w = 0; w < 4; ++w)
        total += sys.m.store().load<std::uint64_t>(counters + w * 32);
    EXPECT_EQ(total, 8u * 30u);
    sys.m.checkCoherenceInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockChaos, ::testing::Values(11, 12, 13));

// Read-miss conservation: on the baseline machine, every demand read
// miss is classified exactly once (cold + coherence + replacement).
TEST(Properties, MissClassificationIsExhaustive)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.slcSize = 2048; // force replacements too
    MiniSystem sys(cfg);
    Addr region = pageBase(cfg, 0);
    Addr bar = pageBase(cfg, 40);
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        sys.run(n, chaosThread(sys.ctx(n), region, 512, 800, bar));
    ASSERT_TRUE(sys.finish(50000000));

    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        const Slc &slc = sys.m.node(n).slc();
        EXPECT_DOUBLE_EQ(slc.missesCold.value() +
                         slc.missesCoherence.value() +
                         slc.missesReplacement.value(),
                         slc.demandReadMisses.value());
        EXPECT_GT(slc.missesReplacement.value(), 0.0);
    }
}
