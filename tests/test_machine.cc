/**
 * @file
 * Tests of the machine assembly: metric aggregation, statistics
 * dumping, configuration variants, and the run loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "apps/driver.hh"
#include "harness.hh"

using namespace psim;
using namespace psim::test;

TEST(Machine, MetricsAggregateAcrossNodes)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    apps::Run run = apps::runWorkload("lu", cfg);
    ASSERT_TRUE(run.finished);

    double loads = 0, misses = 0, stall = 0;
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        loads += run.machine->node(n).cpu().loads.value();
        misses += run.machine->node(n).slc().demandReadMisses.value();
        stall += run.machine->node(n).cpu().readStall.value();
    }
    RunMetrics mx = run.machine->metrics();
    EXPECT_DOUBLE_EQ(mx.reads, loads);
    EXPECT_DOUBLE_EQ(mx.readMisses, misses);
    EXPECT_DOUBLE_EQ(mx.readStall, stall);
    EXPECT_GT(mx.execTicks, 0u);
    EXPECT_GT(mx.flits, 0.0);
}

TEST(Machine, MissClassesSumToMisses)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.slcSize = 8192;
    apps::Run run = apps::runWorkload("ocean", cfg);
    ASSERT_TRUE(run.finished);
    RunMetrics mx = run.machine->metrics();
    EXPECT_DOUBLE_EQ(mx.missesCold + mx.missesCoherence +
                     mx.missesReplacement, mx.readMisses);
}

TEST(Machine, DumpStatsMentionsEveryNode)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    apps::Run run = apps::runWorkload("matmul", cfg);
    ASSERT_TRUE(run.finished);
    std::ostringstream os;
    run.machine->dumpStats(os);
    std::string out = os.str();
    for (NodeId n = 0; n < 4; ++n) {
        std::string prefix = "node" + std::to_string(n) + ".cpu.loads";
        EXPECT_NE(out.find(prefix), std::string::npos) << prefix;
    }
    EXPECT_NE(out.find("mesh.flits"), std::string::npos);
    EXPECT_NE(out.find("node0.slc.demandReadMisses"), std::string::npos);
}

TEST(Machine, RunLimitStopsEarly)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    Machine m(cfg);
    auto wl = apps::makeWorkload("lu", 1);
    wl->attach(m);
    m.run(50); // far too short for any workload
    EXPECT_FALSE(m.allFinished());
    EXPECT_LE(m.eq().now(), 50u);
}

TEST(Machine, PrefetchEfficiencyIsNaNWithoutPrefetching)
{
    // With no prefetches issued there is no efficiency to report:
    // 0/0 is NaN, not a perfect 1.0 (which used to make baseline rows
    // look like flawless prefetchers in the tables).
    MachineConfig cfg;
    cfg.numProcs = 4;
    apps::Run run = apps::runWorkload("lu", cfg);
    ASSERT_TRUE(run.finished);
    EXPECT_DOUBLE_EQ(run.metrics.pfIssued, 0.0);
    EXPECT_TRUE(std::isnan(run.metrics.prefetchEfficiency()));
}

TEST(Machine, EightAndThirtyTwoProcessorConfigurations)
{
    // The machine is not hard-wired to 16 nodes: any mesh that tiles
    // works, and the workloads partition accordingly. 64 nodes on an
    // 8x8 mesh is the largest machine psim builds.
    struct Shape
    {
        unsigned procs;
        unsigned cols;
    };
    for (Shape sh : {Shape{8, 4}, Shape{32, 4}, Shape{64, 8}}) {
        MachineConfig cfg;
        cfg.numProcs = sh.procs;
        cfg.meshCols = sh.cols;
        apps::Run run = apps::runWorkload("lu", cfg);
        ASSERT_TRUE(run.finished) << sh.procs;
        EXPECT_TRUE(run.verified) << sh.procs;
    }
}

TEST(Machine, AuditFlagDoesNotPerturbStats)
{
    // The runtime audit is observability-grade: every statistic is
    // byte-identical with the flag on and off.
    auto statsWithAudit = [](bool audit) {
        MachineConfig cfg;
        cfg.prefetch.scheme = PrefetchScheme::IDet;
        cfg.audit = audit;
        apps::Run run = apps::runWorkload("lu", cfg);
        EXPECT_TRUE(run.finished) << "audit=" << audit;
        std::ostringstream os;
        run.machine->dumpStats(os);
        return os.str();
    };
    std::string off = statsWithAudit(false);
    ASSERT_FALSE(off.empty());
    EXPECT_EQ(off, statsWithAudit(true));
}

TEST(Machine, SeedChangesWorkloadDataNotStructure)
{
    MachineConfig a;
    a.numProcs = 4;
    MachineConfig b = a;
    b.seed = 999;
    apps::Run ra = apps::runWorkload("lu", a);
    apps::Run rb = apps::runWorkload("lu", b);
    ASSERT_TRUE(ra.finished && rb.finished);
    EXPECT_TRUE(ra.verified && rb.verified);
    // Same reference counts (structure), different data -> slightly
    // different timing is permitted but the access counts match.
    EXPECT_DOUBLE_EQ(ra.metrics.reads, rb.metrics.reads);
    EXPECT_DOUBLE_EQ(ra.metrics.writes, rb.metrics.writes);
}

TEST(Machine, CharacterizersOnlyWhenEnabled)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    apps::Run plain = apps::runWorkload("matmul", cfg);
    EXPECT_EQ(plain.machine->characterizer(0), nullptr);

    apps::RunOptions opts;
    opts.characterize = true;
    apps::Run with = apps::runWorkload("matmul", cfg, opts);
    ASSERT_NE(with.machine->characterizer(0), nullptr);
    EXPECT_GT(with.machine->characterizer(0)->totalMisses(), 0u);
}
