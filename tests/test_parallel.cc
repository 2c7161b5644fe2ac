/**
 * @file
 * Tests for the parallel experiment runner: grid coverage, exception
 * propagation, and — the contract every bench harness relies on —
 * that a grid run with jobs=1 and jobs=8 produces identical Stats
 * snapshots and identical table text.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "apps/driver.hh"
#include "sim/parallel.hh"

using namespace psim;

TEST(RunGrid, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 64;
    for (unsigned jobs : {1u, 3u, 8u, 100u}) {
        std::vector<std::atomic<int>> hits(kN);
        runGrid(kN, jobs, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs "
                                         << jobs;
    }
}

TEST(RunGrid, ZeroAndOneCellGrids)
{
    std::atomic<int> count{0};
    runGrid(0, 8, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 0);
    runGrid(1, 8, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
}

TEST(RunGrid, RethrowsFirstCellException)
{
    constexpr std::size_t kN = 32;
    for (unsigned jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(kN);
        EXPECT_THROW(runGrid(kN, jobs,
                             [&](std::size_t i) {
                                 ++hits[i];
                                 if (i % 8 == 3)
                                     throw std::runtime_error("cell failed");
                             }),
                     std::runtime_error)
                << "jobs " << jobs;
        // The serial path stops at the first throw; the threaded path
        // still runs every other cell before rethrowing.
        for (std::size_t i = 0; i < kN; ++i) {
            int want = jobs == 1 ? (i <= 3 ? 1 : 0) : 1;
            EXPECT_EQ(hits[i].load(), want) << "index " << i << " jobs "
                                            << jobs;
        }
    }
}

TEST(ResolveJobs, ExplicitRequestWins)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_GE(resolveJobs(0), 1u);
}

namespace
{

/** One grid cell: metrics, full stats dump, and a formatted row. */
struct CellResult
{
    RunMetrics metrics;
    std::string stats;
    std::string row;
};

/** Run the 2-app x 3-scheme grid the bench harnesses run. */
std::vector<CellResult>
runSmallGrid(unsigned jobs)
{
    const std::vector<std::string> workloads = {"lu", "mp3d"};
    const std::vector<PrefetchScheme> schemes = {
        PrefetchScheme::None, PrefetchScheme::IDet,
        PrefetchScheme::Sequential};

    std::vector<CellResult> cells(workloads.size() * schemes.size());
    runGrid(cells.size(), jobs, [&](std::size_t i) {
        const std::string &name = workloads[i / schemes.size()];
        PrefetchScheme scheme = schemes[i % schemes.size()];
        MachineConfig cfg;
        cfg.prefetch.scheme = scheme;
        apps::Run run = apps::runWorkload(name, cfg);
        ASSERT_TRUE(run.finished) << name;
        ASSERT_TRUE(run.verified) << name;
        CellResult &c = cells[i];
        c.metrics = run.metrics;
        std::ostringstream os;
        run.machine->dumpStats(os);
        c.stats = os.str();
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%-10s %-9s %12.0f %12.0f %8.2f\n",
                      name.c_str(), toString(scheme), c.metrics.readMisses,
                      c.metrics.readStall,
                      c.metrics.prefetchEfficiency());
        c.row = buf;
    });
    return cells;
}

} // namespace

TEST(RunGrid, GridIsDeterministicAcrossJobCounts)
{
    std::vector<CellResult> serial = runSmallGrid(1);
    std::vector<CellResult> parallel = runSmallGrid(8);
    ASSERT_EQ(serial.size(), parallel.size());

    std::string serial_table, parallel_table;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const RunMetrics &a = serial[i].metrics;
        const RunMetrics &b = parallel[i].metrics;
        // Each cell is an independent deterministic simulation, so
        // every metric must match bit-for-bit, not approximately.
        EXPECT_EQ(a.execTicks, b.execTicks) << "cell " << i;
        EXPECT_EQ(a.reads, b.reads) << "cell " << i;
        EXPECT_EQ(a.writes, b.writes) << "cell " << i;
        EXPECT_EQ(a.slcReads, b.slcReads) << "cell " << i;
        EXPECT_EQ(a.readMisses, b.readMisses) << "cell " << i;
        EXPECT_EQ(a.readStall, b.readStall) << "cell " << i;
        EXPECT_EQ(a.missesCold, b.missesCold) << "cell " << i;
        EXPECT_EQ(a.missesCoherence, b.missesCoherence) << "cell " << i;
        EXPECT_EQ(a.missesReplacement, b.missesReplacement)
                << "cell " << i;
        EXPECT_EQ(a.pfIssued, b.pfIssued) << "cell " << i;
        EXPECT_EQ(a.pfUseful, b.pfUseful) << "cell " << i;
        EXPECT_EQ(a.flits, b.flits) << "cell " << i;
        EXPECT_EQ(a.busTransactions, b.busTransactions) << "cell " << i;
        // The full per-node statistics dump must also be identical.
        EXPECT_EQ(serial[i].stats, parallel[i].stats) << "cell " << i;
        serial_table += serial[i].row;
        parallel_table += parallel[i].row;
    }
    EXPECT_EQ(serial_table, parallel_table);
}
