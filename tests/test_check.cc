/**
 * @file
 * Tests for the differential checking subsystem (src/check/): the SC
 * oracle, the fuzz program generator, the shrinker, and the fuzz
 * driver -- including the mutant self-tests that prove the oracle
 * actually rejects a broken machine.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/fuzz.hh"
#include "check/fuzzgen.hh"
#include "check/oracle.hh"
#include "check/shrink.hh"
#include "sim/audit.hh"
#include "harness.hh"

using namespace psim;
using namespace psim::check;

namespace
{

AccessRecord
access(AccessRecord::Kind kind, NodeId node, Addr addr,
       std::uint32_t value, Tick tick = 0)
{
    AccessRecord rec;
    rec.tick = tick;
    rec.node = node;
    rec.kind = kind;
    rec.len = sizeof(value);
    rec.addr = addr;
    std::memcpy(rec.value, &value, sizeof(value));
    return rec;
}

AccessRecord
write(NodeId node, Addr addr, std::uint32_t value, Tick tick = 0)
{
    return access(AccessRecord::Kind::Write, node, addr, value, tick);
}

AccessRecord
read(NodeId node, Addr addr, std::uint32_t value, Tick tick = 0)
{
    return access(AccessRecord::Kind::Read, node, addr, value, tick);
}

} // namespace

// ---- oracle unit tests (hand-built logs, no simulation) ----

TEST(Oracle, AcceptsAConsistentLog)
{
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    log.onAccess(write(0, 0x1000, 7));
    log.onAccess(read(1, 0x1000, 7));
    store.store<std::uint32_t>(0x1000, 7);

    OracleReport rep = oracle.check(log, store, nullptr);
    EXPECT_TRUE(rep.ok()) << rep.divergences.front().describe();
    EXPECT_EQ(rep.loadsChecked, 1u);
    EXPECT_EQ(rep.storesReplayed, 1u);
}

TEST(Oracle, SeesThroughTheInitialSnapshot)
{
    // A load of a location only ever written before the run must check
    // against the pre-run snapshot, not against zero.
    BackingStore store;
    store.store<std::uint32_t>(0x2000, 123);
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    log.onAccess(read(0, 0x2000, 123));

    EXPECT_TRUE(oracle.check(log, store, nullptr).ok());

    AccessLog bad;
    bad.onAccess(read(0, 0x2000, 124));
    OracleReport rep = oracle.check(bad, store, nullptr);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::LoadValue);
}

TEST(Oracle, CatchesAStaleLoad)
{
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    log.onAccess(write(0, 0x1000, 5, /*tick=*/10));
    log.onAccess(read(1, 0x1000, 4, /*tick=*/20)); // stale: pre-store value
    store.store<std::uint32_t>(0x1000, 5);

    OracleReport rep = oracle.check(log, store, nullptr);
    ASSERT_EQ(rep.total, 1u);
    const Divergence &d = rep.divergences[0];
    EXPECT_EQ(d.kind, Divergence::Kind::LoadValue);
    EXPECT_EQ(d.node, 1u);
    EXPECT_EQ(d.addr, 0x1000u);
    EXPECT_EQ(d.tick, 20u);
    // describe() must carry the essentials for a bug report.
    std::string line = d.describe();
    EXPECT_NE(line.find("load-value"), std::string::npos);
    EXPECT_NE(line.find("0x1000"), std::string::npos);
}

TEST(Oracle, CatchesAMissingStoreInTheFinalImage)
{
    // The log says the store happened; the machine's memory never got
    // it. The replayed shadow then differs from the final image.
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    log.onAccess(write(0, 0x1000, 9));
    // store deliberately not applied to the machine's memory

    OracleReport rep = oracle.check(log, store, nullptr);
    ASSERT_GE(rep.total, 1u);
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::FinalImage);
}

TEST(Oracle, CatchesAPhantomValueInTheFinalImage)
{
    // The machine's memory holds data no committed store explains --
    // the comparison must be bidirectional.
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    store.store<std::uint32_t>(0x3000, 0xDEAD);

    OracleReport rep = oracle.check(log, store, nullptr);
    ASSERT_GE(rep.total, 1u);
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::FinalImage);
}

TEST(Oracle, EnforcesThePageRule)
{
    BackingStore store;
    Oracle oracle(4096);
    oracle.snapshotInitial(store);

    AccessLog log;
    PrefetchIssueRecord ok;
    ok.node = 0;
    ok.trigger = 0x10000100;
    ok.block = 0x10000120; // same 4KB page
    log.onPrefetchIssue(ok);

    PrefetchIssueRecord bad;
    bad.node = 2;
    bad.trigger = 0x10000FF8;
    bad.block = 0x10001000; // next page
    log.onPrefetchIssue(bad);

    OracleReport rep = oracle.check(log, store, nullptr);
    ASSERT_EQ(rep.total, 1u);
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::PageCross);
    EXPECT_EQ(rep.divergences[0].node, 2u);
    EXPECT_EQ(rep.prefetchesChecked, 2u);
}

TEST(Oracle, ChecksTheFateLedger)
{
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);
    AccessLog log;

    audit::LedgerSnapshot ledger;
    ledger.nodes.resize(2);
    ledger.nodes[0].issued = 4;
    ledger.nodes[0].fates[1] = 3; // UsefulTagged
    ledger.nodes[0].fates[5] = 1; // Replaced
    ledger.nodes[1].issued = 1;
    ledger.nodes[1].fates[7] = 1; // ResidentAtEnd
    EXPECT_TRUE(oracle.check(log, store, &ledger).ok());

    ledger.nodes[1].issued = 2; // one issue now has no terminal fate
    OracleReport rep = oracle.check(log, store, &ledger);
    ASSERT_EQ(rep.total, 1u);
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::Ledger);
    EXPECT_EQ(rep.divergences[0].node, 1u);
}

// ---- generator determinism ----

TEST(FuzzGen, GenerateIsDeterministic)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
        ProgramSpec a = ProgramSpec::generate(seed);
        ProgramSpec b = ProgramSpec::generate(seed);
        EXPECT_EQ(a.describe(), b.describe());
        EXPECT_GE(a.phases.size(), 2u);
        EXPECT_GE(a.threads, 2u);
    }
    EXPECT_NE(ProgramSpec::generate(1).describe(),
              ProgramSpec::generate(2).describe());
}

// ---- recording must be observability-grade ----

TEST(FuzzRun, RecordingDoesNotPerturbTheRun)
{
    ProgramSpec spec = ProgramSpec::generate(7);
    MachineConfig cfg;
    cfg.numProcs = spec.threads;
    if (cfg.numProcs < 4)
        cfg.meshCols = cfg.numProcs;
    cfg.prefetch.scheme = PrefetchScheme::Sequential;
    cfg.prefetch.degree = spec.degree;
    cfg.seed = spec.seed;

    RunMetrics mx[2];
    for (int rec = 0; rec < 2; ++rec) {
        Machine m(cfg);
        FuzzWorkload wl(spec);
        AccessLog log;
        if (rec)
            m.enableCommitRecording(log);
        wl.attach(m);
        m.run(50'000'000);
        ASSERT_TRUE(m.allFinished());
        ASSERT_TRUE(wl.verify(m));
        mx[rec] = m.metrics();
        if (rec) {
            EXPECT_GT(log.accesses().size(), 0u);
        }
    }
    EXPECT_EQ(mx[0].execTicks, mx[1].execTicks);
    EXPECT_DOUBLE_EQ(mx[0].reads, mx[1].reads);
    EXPECT_DOUBLE_EQ(mx[0].writes, mx[1].writes);
    EXPECT_DOUBLE_EQ(mx[0].readMisses, mx[1].readMisses);
    EXPECT_DOUBLE_EQ(mx[0].pfIssued, mx[1].pfIssued);
    EXPECT_DOUBLE_EQ(mx[0].flits, mx[1].flits);
}

// ---- the 4KB page-boundary rule, end to end ----

TEST(FuzzRun, PageRuleHoldsForEverySchemeAndStrideSign)
{
    // Page-straddling strides in both directions: |stride| close to
    // and above the 4KB page size, so nearly every next-block guess
    // sits in another page and the SLC filter is load-bearing.
    ProgramSpec spec;
    spec.seed = 99;
    spec.threads = 4;
    spec.degree = 4;
    PhaseSpec up;
    up.kind = PhaseSpec::Kind::StridedSweep;
    up.stride = 4092;
    up.iters = 48;
    up.lanes = 2;
    PhaseSpec down = up;
    down.stride = -4100;
    PhaseSpec blocky = up;
    blocky.stride = -64;
    spec.phases = {up, down, blocky};

    const PrefetchScheme schemes[] = {
        PrefetchScheme::Sequential,  PrefetchScheme::IDet,
        PrefetchScheme::DDet,        PrefetchScheme::Adaptive,
        PrefetchScheme::IDetLookahead, PrefetchScheme::MultiStride,
        PrefetchScheme::PtrChase,    PrefetchScheme::Perceptron,
    };
    for (PrefetchScheme s : schemes) {
        SchemeRun run = runOneScheme(spec, s, TestHooks{}, 50'000'000);
        ASSERT_TRUE(run.finished) << toString(s);
        EXPECT_TRUE(run.verified) << toString(s);
        EXPECT_TRUE(run.oracle.ok())
                << toString(s) << ": "
                << run.oracle.divergences.front().describe();
    }

    // The property is vacuous unless prefetches were actually checked.
    SchemeRun seq = runOneScheme(spec, PrefetchScheme::Sequential,
            TestHooks{}, 50'000'000);
    EXPECT_GT(seq.oracle.prefetchesChecked, 0u);
}

// ---- shrinker ----

TEST(Shrink, MinimizesToTheFailingPhase)
{
    // Synthetic predicate, no simulation: "fails" whenever any enabled
    // SharedCounter phase has iters >= 8. The shrinker must strip the
    // unrelated phases and halve the counter phase down to the
    // boundary without ever "fixing" the spec.
    ProgramSpec spec;
    spec.seed = 5;
    spec.threads = 8;
    spec.phases.resize(4);
    spec.phases[0].kind = PhaseSpec::Kind::StridedSweep;
    spec.phases[1].kind = PhaseSpec::Kind::SharedCounter;
    spec.phases[1].iters = 60;
    spec.phases[1].lanes = 4;
    spec.phases[2].kind = PhaseSpec::Kind::Migratory;
    spec.phases[3].kind = PhaseSpec::Kind::RandomMix;

    auto pred = [](const ProgramSpec &s) {
        for (const PhaseSpec &p : s.phases) {
            if (p.enabled && p.kind == PhaseSpec::Kind::SharedCounter &&
                p.iters >= 8)
                return true;
        }
        return false;
    };
    ASSERT_TRUE(pred(spec));

    ShrinkResult res = shrink(spec, pred, 64);
    EXPECT_TRUE(pred(res.spec)); // never accept a passing candidate
    EXPECT_EQ(res.spec.enabledPhases(), 1u);
    unsigned counter_iters = 0;
    for (const PhaseSpec &p : res.spec.phases) {
        if (p.enabled) {
            EXPECT_EQ(p.kind, PhaseSpec::Kind::SharedCounter);
            counter_iters = p.iters;
        }
    }
    EXPECT_GE(counter_iters, 8u);
    EXPECT_LE(counter_iters, 15u); // one more halving would pass
    EXPECT_EQ(res.spec.threads, 2u);
    EXPECT_GT(res.improvements, 0u);
}

// ---- the fuzz driver ----

TEST(Fuzz, SmokeRunIsCleanAndDeterministicAcrossJobs)
{
    FuzzOptions opts;
    opts.seedStart = 1;
    opts.numSeeds = 4;
    opts.jobs = 1;

    std::ostringstream out1;
    FuzzReport rep1 = runFuzz(opts, out1);
    EXPECT_TRUE(rep1.ok()) << out1.str();
    EXPECT_EQ(rep1.seedsRun, 4u);
    EXPECT_GT(rep1.loadsChecked, 0u);

    opts.jobs = 4;
    std::ostringstream out4;
    FuzzReport rep4 = runFuzz(opts, out4);
    EXPECT_EQ(out1.str(), out4.str());
    EXPECT_EQ(rep1.loadsChecked, rep4.loadsChecked);
}

TEST(FuzzDeath, EmptySeedSetIsFatal)
{
    // "0 seeds, 0 divergent" would read as a pass; it checked nothing.
    FuzzOptions opts;
    opts.numSeeds = 0;
    std::ostringstream out;
    EXPECT_EXIT(runFuzz(opts, out), ::testing::ExitedWithCode(1),
            "no seeds to check");
}

// ---- mutant self-tests: the oracle must reject a broken machine ----

TEST(Mutant, CorruptedLoadsAreCaught)
{
    // A machine that flips a bit in every 7th consumed load value must
    // be rejected by the load-value cross-check.
    ProgramSpec spec = ProgramSpec::generate(1);
    TestHooks hooks;
    hooks.corruptReadPeriod = 7;
    std::string why;
    ASSERT_TRUE(specDiverges(spec, hooks, 50'000'000, &why));
    EXPECT_NE(why.find("load-value"), std::string::npos) << why;
}

TEST(Mutant, DroppedStoresAreCaught)
{
    ProgramSpec spec = ProgramSpec::generate(1);
    TestHooks hooks;
    hooks.dropStorePeriod = 11;
    std::string why;
    ASSERT_TRUE(specDiverges(spec, hooks, 50'000'000, &why));
}

TEST(Mutant, PageCrossingPrefetchesAreCaught)
{
    // Let every 3rd prefetch candidate bypass the SLC page filter; the
    // page-straddling sweep guarantees cross-page candidates exist.
    ProgramSpec spec;
    spec.seed = 99;
    spec.threads = 4;
    spec.degree = 4;
    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::StridedSweep;
    sweep.stride = 4092;
    sweep.iters = 48;
    sweep.lanes = 2;
    spec.phases = {sweep};

    TestHooks hooks;
    hooks.allowPageCrossPeriod = 3;
    SchemeRun run = runOneScheme(spec, PrefetchScheme::Sequential,
            hooks, 50'000'000);
    ASSERT_FALSE(run.oracle.ok());
    EXPECT_EQ(run.oracle.divergences[0].kind,
              Divergence::Kind::PageCross);
}

TEST(Mutant, DivergenceReplaysDeterministicallyFromTheSeed)
{
    // The printed seed must reproduce the failure bit-for-bit: same
    // divergence, same description -- that is what makes the fuzz
    // report actionable.
    ProgramSpec spec = ProgramSpec::generate(1);
    TestHooks hooks;
    hooks.corruptReadPeriod = 7;
    std::string why1, why2;
    ASSERT_TRUE(specDiverges(spec, hooks, 50'000'000, &why1));
    ASSERT_TRUE(specDiverges(spec, hooks, 50'000'000, &why2));
    EXPECT_EQ(why1, why2);
}

TEST(Mutant, ShrunkReproStillFails)
{
    ProgramSpec spec = ProgramSpec::generate(1);
    TestHooks hooks;
    hooks.corruptReadPeriod = 7;
    auto pred = [&hooks](const ProgramSpec &s) {
        return specDiverges(s, hooks, 50'000'000, nullptr);
    };
    ASSERT_TRUE(pred(spec));
    ShrinkResult res = shrink(spec, pred, 24);
    EXPECT_TRUE(pred(res.spec));
    EXPECT_LE(res.spec.enabledPhases(), spec.enabledPhases());
}
