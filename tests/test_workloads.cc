/**
 * @file
 * White-box checks of the workload kernels: the data-layout properties
 * that give each application its paper signature must actually hold.
 */

#include <gtest/gtest.h>

#include "apps/bfs.hh"
#include "apps/driver.hh"
#include "apps/mp3d.hh"
#include "apps/pthor.hh"
#include "apps/radix.hh"
#include "apps/water.hh"

using namespace psim;
using namespace psim::apps;

TEST(Workloads, WaterRecordIsExactly21Blocks)
{
    // The paper reports Water's dominant stride as 21 blocks; that is
    // literally sizeof(molecule record) / 32.
    EXPECT_EQ(WaterWorkload::kRecordBytes, 672u);
    EXPECT_EQ(WaterWorkload::kRecordBytes / 32, 21u);
    // The streamed fields live in the first four blocks (adjacent),
    // which is what lets sequential prefetching keep up.
    EXPECT_LT(WaterWorkload::kPosZ, 32u);
    EXPECT_LT(WaterWorkload::kDipole, 64u);
    EXPECT_LT(WaterWorkload::kCharge + 24, 96u);
}

TEST(Workloads, Mp3dRecordStraddlesBlocks)
{
    // 40-byte particles: every record spans two 32-byte blocks, the
    // source of MP3D's high spatial locality without strides.
    EXPECT_EQ(Mp3dWorkload::kRecordBytes, 40u);
    for (unsigned p = 0; p < 16; ++p) {
        Addr start = static_cast<Addr>(p) * Mp3dWorkload::kRecordBytes;
        Addr end = start + Mp3dWorkload::kRecordBytes - 1;
        EXPECT_NE(start / 32, end / 32)
                << "particle " << p << " fits one block";
    }
}

TEST(Workloads, PthorElementIsTwoBlocks)
{
    EXPECT_EQ(PthorWorkload::kRecordBytes, 64u);
    EXPECT_EQ(PthorWorkload::kRecordBytes / 32, 2u);
}

TEST(Workloads, RadixGeometry)
{
    EXPECT_EQ(RadixWorkload::kBuckets, 16u);
    EXPECT_EQ(RadixWorkload::kPasses * RadixWorkload::kRadixBits, 16u)
            << "passes must cover the key width";
}

TEST(Workloads, BfsOwnerMatchesDivisionFormula)
{
    // The reference: thread t owns [t * nV / nproc, (t + 1) * nV / nproc),
    // found by dividing and stepping to the boundary.
    auto lo = [](unsigned t, std::uint32_t nV, unsigned nproc) {
        return static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(t) * nV / nproc);
    };
    auto divisionOwner = [&](std::uint32_t v, std::uint32_t nV,
                             unsigned nproc) {
        unsigned t = static_cast<unsigned>(
                static_cast<std::uint64_t>(v) * nproc / nV);
        while (t + 1 < nproc && lo(t + 1, nV, nproc) <= v)
            ++t;
        while (lo(t, nV, nproc) > v)
            --t;
        return t;
    };
    // Every vertex count BFS builds (64 * nproc * scale, rounded up to
    // a power of two) at scales 1 and 2, and the degenerate nV == nproc.
    for (unsigned nproc = 1; nproc <= 64; ++nproc) {
        std::uint32_t minV = 1;
        while (minV < nproc)
            minV <<= 1;
        for (std::uint32_t nV : {minV, minV * 64, minV * 128}) {
            VertexPartition part(nV, nproc);
            for (unsigned t = 0; t <= nproc; ++t)
                ASSERT_EQ(part.lo(t), lo(t, nV, nproc));
            for (std::uint32_t v = 0; v < nV; ++v)
                ASSERT_EQ(part.ownerOf(v), divisionOwner(v, nV, nproc))
                        << "v " << v << " nV " << nV << " nproc " << nproc;
        }
    }
}

TEST(Workloads, EveryRegisteredNameConstructs)
{
    // The registry table in apps/registry.cc is the only copy of the
    // names; an unknown name is fatal there, so each must construct.
    for (const char *n : {"mp3d",  "cholesky", "water",    "lu",
                          "ocean", "pthor",    "matmul",   "fft",
                          "radix", "barnes",   "kvstore",  "hashjoin",
                          "bfs",   "logappend"})
        EXPECT_NE(makeWorkload(n), nullptr) << n;
}

TEST(Workloads, RegistryListsPartitionTheTable)
{
    // paperWorkloads() carries the six paper applications in paper
    // order; serverWorkloads() carries the request-driven suite. The
    // two lists must be disjoint and every name constructible.
    const auto &paper = paperWorkloads();
    const auto &server = serverWorkloads();
    ASSERT_EQ(paper.size(), 6u);
    EXPECT_EQ(paper.front(), "mp3d");
    ASSERT_EQ(server.size(), 4u);
    EXPECT_EQ(server.front(), "kvstore");
    for (const auto &p : paper)
        for (const auto &s : server)
            EXPECT_NE(p, s);
    for (const auto *list : {&paper, &server})
        for (const auto &n : *list)
            EXPECT_NE(makeWorkload(n), nullptr) << n;
}

TEST(Workloads, KvStoreEvictionVerifies)
{
    // Uniform keys (theta 0) make enough distinct-key PUTs to fill a
    // partition's occupancy bound, so PUTs evict the LRU tail; the
    // default Zipf skew never does. At scale 1 on 16 nodes this input
    // evicts 103 times. verify() compares every slot, LRU link and
    // eviction counter against the native model.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.server.zipfTheta = 0;
    psim::apps::Run run = runWorkload("kvstore", cfg);
    ASSERT_TRUE(run.finished);
    EXPECT_TRUE(run.verified);
}

TEST(Workloads, ScaleParameterGrowsEveryApp)
{
    // scale=2 must mean more total work for every registered app.
    const char *names[] = {"mp3d",  "cholesky", "water",   "lu",
                           "ocean", "pthor",    "matmul",  "fft",
                           "radix", "barnes",   "kvstore", "hashjoin",
                           "bfs",   "logappend"};
    MachineConfig cfg;
    cfg.numProcs = 4;
    for (const char *n : names) {
        RunOptions s1, s2;
        s2.scale = 2;
        psim::apps::Run a = runWorkload(n, cfg, s1);
        psim::apps::Run b = runWorkload(n, cfg, s2);
        ASSERT_TRUE(a.finished && b.finished) << n;
        ASSERT_TRUE(a.verified && b.verified) << n;
        EXPECT_GT(b.metrics.reads, a.metrics.reads) << n;
    }
}

TEST(Workloads, SynchronizationIsActuallyExercised)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    // Barrier-heavy apps must run barrier episodes; PTHOR also locks.
    for (const char *n : {"lu", "ocean", "water", "fft", "radix",
                          "kvstore", "hashjoin", "bfs", "logappend"}) {
        psim::apps::Run run = runWorkload(n, cfg);
        ASSERT_TRUE(run.finished) << n;
        double barriers = 0;
        for (NodeId node = 0; node < cfg.numProcs; ++node)
            barriers += run.machine->node(node).cpu().barriers.value();
        EXPECT_GT(barriers, 0.0) << n;
    }
}

TEST(Workloads, WritesAreOwnerPartitioned)
{
    // Every workload must be data-race-free: verify() already proves
    // values match a serial reference, but also check that the machine
    // quiesces with a consistent directory for each app at 4 procs.
    MachineConfig cfg;
    cfg.numProcs = 4;
    for (const char *n : {"mp3d", "pthor", "barnes", "radix",
                          "kvstore", "hashjoin", "bfs", "logappend"}) {
        psim::apps::Run run = runWorkload(n, cfg);
        ASSERT_TRUE(run.finished) << n;
        run.machine->checkCoherenceInvariants();
    }
}
