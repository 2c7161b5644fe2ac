/**
 * @file
 * Tests for the differential checking subsystem (src/check/): the SC
 * oracle, the fuzz program generator, the shrinker, and the fuzz
 * driver. That each check rejects a broken machine is shown by the
 * mutation gate (scripts/mutate.sh), which patches the simulator.
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

    // check() consumes the snapshot; take it again for a second replay.
    oracle.snapshotInitial(store);
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

TEST(Oracle, ReportsFinalImageDivergencesInAddressOrder)
{
    // Three pages: 0x1000 only in the replayed shadow (a store the
    // machine lost), 0x2000 only in the machine (a phantom value), and
    // 0x3000 in both, differing in 40 of its 8-byte chunks. No page
    // differs in its first chunk. The pages are materialized in
    // reverse address order; the report must still come out by
    // address, and the total must count past the cap.
    constexpr unsigned kDiffering = 40;
    static_assert(kDiffering > Oracle::kMaxReported);
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);

    AccessLog log;
    for (unsigned k = 0; k < kDiffering; ++k) {
        store.store<std::uint32_t>(0x3008 + 8 * k, 2 * k + 2);
        log.onAccess(write(0, 0x3008 + 8 * k, 2 * k + 1));
    }
    store.store<std::uint32_t>(0x2040, 0xBEEF);
    log.onAccess(write(0, 0x1ff8, 0xF00D));

    OracleReport rep = oracle.check(log, store, nullptr);
    EXPECT_EQ(rep.total, 2u + kDiffering);
    ASSERT_EQ(rep.divergences.size(), Oracle::kMaxReported);
    for (const Divergence &d : rep.divergences) {
        EXPECT_EQ(d.kind, Divergence::Kind::FinalImage);
        EXPECT_EQ(d.len, 8u);
    }
    EXPECT_EQ(rep.divergences[0].addr, 0x1ff8u);
    EXPECT_EQ(rep.divergences[1].addr, 0x2040u);
    for (std::size_t i = 2; i < rep.divergences.size(); ++i)
        EXPECT_EQ(rep.divergences[i].addr, 0x3008u + 8 * (i - 2)) << i;

    // The shadow-only page's chunk: the shadow holds the store, the
    // machine reads zero; the machine-only page is the reverse.
    std::uint32_t v;
    std::memcpy(&v, rep.divergences[0].expected, sizeof(v));
    EXPECT_EQ(v, 0xF00Du);
    std::memcpy(&v, rep.divergences[0].got, sizeof(v));
    EXPECT_EQ(v, 0u);
    std::memcpy(&v, rep.divergences[1].got, sizeof(v));
    EXPECT_EQ(v, 0xBEEFu);
    std::memcpy(&v, rep.divergences[1].expected, sizeof(v));
    EXPECT_EQ(v, 0u);
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
    oracle.snapshotInitial(store);
    OracleReport rep = oracle.check(log, store, &ledger);
    ASSERT_EQ(rep.total, 1u);
    EXPECT_EQ(rep.divergences[0].kind, Divergence::Kind::Ledger);
    EXPECT_EQ(rep.divergences[0].node, 1u);
}

TEST(OracleDeath, CheckConsumesTheSnapshot)
{
    BackingStore store;
    Oracle oracle;
    oracle.snapshotInitial(store);
    AccessLog log;
    EXPECT_TRUE(oracle.check(log, store, nullptr).ok());
    EXPECT_DEATH(oracle.check(log, store, nullptr),
            "without a fresh snapshotInitial");
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
        SchemeRun run = runOneScheme(spec, s, 50'000'000);
        ASSERT_TRUE(run.finished) << toString(s);
        EXPECT_TRUE(run.verified) << toString(s);
        EXPECT_TRUE(run.oracle.ok())
                << toString(s) << ": "
                << run.oracle.divergences.front().describe();
    }

    // The property is vacuous unless prefetches were actually checked.
    SchemeRun seq = runOneScheme(spec, PrefetchScheme::Sequential,
            50'000'000);
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

TEST(Fuzz, CheckedLoadsComeFromTheBaselineRun)
{
    // A seed's checked-load count is its baseline run's, the first of
    // the differential runs specDiverges makes.
    const std::uint64_t seed = 3;
    FuzzOptions opts;
    opts.seeds = {seed};
    std::ostringstream out;
    FuzzReport rep = runFuzz(opts, out);
    ASSERT_TRUE(rep.ok()) << out.str();

    SchemeRun base = runOneScheme(ProgramSpec::generate(seed),
            PrefetchScheme::None, FuzzOptions::tickLimit);
    EXPECT_GT(base.oracle.loadsChecked, 0u);
    EXPECT_EQ(rep.loadsChecked, base.oracle.loadsChecked);
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
