/**
 * @file
 * Tests of the sharded (windowed, conservatively synchronized) event
 * engine: the deterministic (owner, counter) ordering contract of
 * EventQueue::runWindow, the ShardGang round protocol, and the
 * machine-level guarantees that stats AND every shard-aware observer
 * (sampler, chrome trace, commit stream) are byte-identical at every
 * shard count (`--shards 1` is the reference ordering; 2, 4, 8 must
 * reproduce it exactly) while remaining read-only.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/driver.hh"
#include "check/access_log.hh"
#include "check/fuzzgen.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/sampler.hh"
#include "sim/shard.hh"
#include "sys/machine.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"

#include "harness.hh"

using namespace psim;
using namespace psim::check;

// ---- EventQueue window semantics ----

TEST(ShardedQueue, WindowEndIsExclusive)
{
    EventQueue eq;
    eq.setShardOrder(2);
    eq.setContextOwner(0);
    std::vector<Tick> fired;
    eq.schedule(5, [&] { fired.push_back(5); });
    eq.schedule(10, [&] { fired.push_back(10); });

    // An event exactly at the lookahead horizon belongs to the NEXT
    // window; firing it early would let it race cross-shard messages
    // exchanged at the boundary.
    eq.runWindow(10);
    EXPECT_EQ(fired, (std::vector<Tick>{5}));
    EXPECT_EQ(eq.nextWhen(), 10u);

    eq.runWindow(11);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
    EXPECT_TRUE(eq.empty());
}

TEST(ShardedQueue, SameTickFiresInOwnerOrderNotInsertionOrder)
{
    EventQueue eq;
    eq.setShardOrder(4);
    std::vector<int> order;

    // Insert same-tick events in descending owner order; runWindow
    // must fire them ascending (owner, per-owner counter) regardless.
    eq.scheduleRemote(7, 3, [&] { order.push_back(3); });
    eq.scheduleRemote(7, 1, [&] { order.push_back(1); });
    eq.scheduleRemote(7, 0, [&] { order.push_back(0); });
    eq.scheduleRemote(7, 2, [&] { order.push_back(2); });
    eq.runWindow(8);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardedQueue, SameOwnerSameTickKeepsScheduleOrder)
{
    EventQueue eq;
    eq.setShardOrder(2);
    std::vector<int> order;
    eq.scheduleRemote(3, 1, [&] { order.push_back(10); });
    eq.scheduleRemote(3, 1, [&] { order.push_back(11); });
    eq.scheduleRemote(3, 0, [&] { order.push_back(0); });
    eq.runWindow(4);
    EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(ShardedQueue, SameTickChildrenFireThisTickAfterParents)
{
    EventQueue eq;
    eq.setShardOrder(2);
    eq.setContextOwner(0);
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        // A same-tick child scheduled while the staging heap drains
        // tick 5 fires inside this window. It inherits owner 0 and the
        // next owner-0 counter, so it orders BEFORE the already-staged
        // owner-1 event: the tick's total order is strictly
        // (owner, counter), independent of when events were inserted
        // -- that is what makes firing shard-count invariant.
        eq.schedule(5, [&] { order.push_back(2); });
    });
    eq.scheduleRemote(5, 1, [&] { order.push_back(3); });
    eq.runWindow(6);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(ShardedQueue, CancelOfPendingAndStagedEvents)
{
    EventQueue eq;
    eq.setShardOrder(2);
    eq.setContextOwner(0);
    std::vector<int> order;

    // Cancel before the window: never fires.
    EventQueue::EventId a = eq.schedule(4, [&] { order.push_back(-1); });
    eq.cancel(a);

    // Cancel from a same-tick event with lower seq: the victim has
    // already been pulled into the staging heap when the canceller
    // runs, so this exercises the staged-cancellation path.
    EventQueue::EventId b = 0;
    eq.schedule(6, [&] {
        order.push_back(1);
        eq.cancel(b);
    });
    b = eq.scheduleRemote(6, 1, [&] { order.push_back(-2); });
    eq.scheduleRemote(6, 1, [&] { order.push_back(2); });

    eq.runWindow(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq.empty());

    // Double-cancel and cancel-after-fire are no-ops.
    eq.cancel(a);
    eq.cancel(b);
}

TEST(ShardedQueue, RunWindowAdvancesNowToWindowStartAtMost)
{
    EventQueue eq;
    eq.setShardOrder(1);
    eq.setContextOwner(0);
    eq.schedule(100, [] {});
    // Nothing in [0, 50): now must not run past the window.
    eq.runWindow(50);
    EXPECT_LT(eq.now(), 50u);
    eq.advanceTo(50);
    EXPECT_EQ(eq.now(), 50u);
    eq.runWindow(101);
    EXPECT_EQ(eq.now(), 100u);
}

// ---- ShardGang round protocol ----

TEST(ShardGang, RunsBodyExactlyOncePerShardPerRound)
{
    std::array<std::atomic<int>, 4> counts{};
    ShardGang gang(4, [&](unsigned s) {
        ASSERT_LT(s, 4u);
        counts[s].fetch_add(1, std::memory_order_relaxed);
    });
    for (int round = 0; round < 3; ++round)
        gang.runRound();
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 3);
}

TEST(ShardGang, SingleShardRunsOnTheCallersThread)
{
    // The one-shard gang must not synchronize or hand off: body(0)
    // runs inline so a --shards 1 machine is as serial as it claims.
    const std::thread::id caller = std::this_thread::get_id();
    int runs = 0;
    ShardGang gang(1, [&](unsigned s) {
        EXPECT_EQ(s, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++runs;
    });
    gang.runRound();
    gang.runRound();
    EXPECT_EQ(runs, 2);
}

TEST(ShardGang, ZeroShardGangRunsNothing)
{
    // A zero-shard gang has no shard 0; invoking the body would hand
    // the callback an index that does not exist.
    int runs = 0;
    ShardGang gang(0, [&](unsigned) { ++runs; });
    gang.runRound();
    EXPECT_EQ(runs, 0);
}

TEST(ShardGang, DestructsCleanlyWithoutEverRunningARound)
{
    // Workers park waiting for round zero to advance; the destructor
    // must release and join them even if runRound() was never called.
    ShardGang gang(8, [](unsigned) { FAIL() << "body ran"; });
}

// ---- machine-level determinism ----

namespace
{

/** dumpStats text of one full run of @p name at @p shards. */
std::string
statsAtShards(const std::string &name, unsigned shards,
              PrefetchScheme scheme, unsigned procs = 16,
              bool audit = false)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.meshCols = procs >= 16 ? 4 : procs;
    if (procs == 64)
        cfg.meshCols = 8;
    cfg.prefetch.scheme = scheme;
    cfg.shards = shards;
    cfg.audit = audit;
    apps::Run run = apps::runWorkload(name, cfg);
    EXPECT_TRUE(run.finished) << name << " at shards=" << shards;
    std::ostringstream os;
    run.machine->dumpStats(os);
    return os.str();
}

/** dumpStats text of one fuzz program at @p shards. */
std::string
fuzzStatsAtShards(std::uint64_t seed, unsigned shards)
{
    ProgramSpec spec = ProgramSpec::generate(seed);
    MachineConfig cfg;
    cfg.numProcs = spec.threads;
    if (cfg.numProcs < 4)
        cfg.meshCols = cfg.numProcs;
    cfg.prefetch.scheme = PrefetchScheme::Sequential;
    cfg.prefetch.degree = spec.degree;
    cfg.seed = spec.seed;
    cfg.shards = shards;
    Machine m(cfg);
    FuzzWorkload wl(spec);
    wl.attach(m);
    m.run(50'000'000);
    EXPECT_TRUE(m.allFinished()) << "seed " << seed << " shards " << shards;
    EXPECT_TRUE(wl.verify(m)) << "seed " << seed << " shards " << shards;
    std::ostringstream os;
    m.dumpStats(os);
    return os.str();
}

} // namespace

TEST(ShardedMachine, StatsByteIdenticalAcrossShardCounts)
{
    // The fig6 configuration (16 procs, infinite SLC) on two
    // applications with different communication structure.
    for (const char *name : {"lu", "mp3d"}) {
        std::string ref = statsAtShards(name, 1, PrefetchScheme::IDet);
        ASSERT_FALSE(ref.empty());
        for (unsigned shards : {2u, 4u, 8u}) {
            EXPECT_EQ(ref, statsAtShards(name, shards,
                                         PrefetchScheme::IDet))
                    << name << " diverged at shards=" << shards;
        }
    }
}

TEST(ShardedMachine, ServerWorkloadsByteIdenticalAcrossShardCounts)
{
    // The request-driven server suite: open-loop arrival gaps and
    // Zipf-skewed sharing must not introduce any shard-count
    // dependence. --shards 1 is the reference ordering; 4 and 8 must
    // reproduce its stats byte-for-byte.
    for (const char *name : {"kvstore", "hashjoin", "bfs", "logappend"}) {
        std::string ref = statsAtShards(name, 1, PrefetchScheme::IDet);
        ASSERT_FALSE(ref.empty());
        for (unsigned shards : {4u, 8u}) {
            EXPECT_EQ(ref, statsAtShards(name, shards,
                                         PrefetchScheme::IDet))
                    << name << " diverged at shards=" << shards;
        }
    }
}

TEST(ShardedMachine, StatsByteIdenticalAt64Nodes)
{
    std::string s1 = statsAtShards("lu", 1, PrefetchScheme::Sequential,
                                   64);
    EXPECT_EQ(s1, statsAtShards("lu", 4, PrefetchScheme::Sequential, 64));
}

TEST(ShardedMachine, FuzzCorpusByteIdenticalAcrossShardCounts)
{
    for (std::uint64_t seed : {3ULL, 11ULL, 42ULL}) {
        std::string ref = fuzzStatsAtShards(seed, 1);
        ASSERT_FALSE(ref.empty());
        for (unsigned shards : {2u, 4u}) {
            EXPECT_EQ(ref, fuzzStatsAtShards(seed, shards))
                    << "seed " << seed << " diverged at shards="
                    << shards;
        }
    }
}

TEST(ShardedMachine, AuditFlagDoesNotPerturbShardedStats)
{
    // The runtime audit must be observability-grade on the sharded
    // path too: aggregates identical with the flag on and off.
    std::string off = statsAtShards("lu", 2, PrefetchScheme::IDet, 16,
                                    false);
    std::string on = statsAtShards("lu", 2, PrefetchScheme::IDet, 16,
                                   true);
    EXPECT_EQ(off, on);
}

// ---- shard-aware observers ----

namespace
{

/** Everything every observer produced in one fully-instrumented run. */
struct ObserverCapture
{
    std::string stats;
    std::string samplerCsv;
    std::string samplerJson;
    std::string chrome;
    std::string commits;
};

/** Flatten a commit stream into a canonical, diffable text form. */
std::string
commitText(const check::AccessLog &log)
{
    std::ostringstream os;
    for (const auto &a : log.accesses()) {
        os << a.tick << ' ' << a.node << ' '
           << (a.kind == check::AccessRecord::Kind::Read ? 'R' : 'W')
           << ' ' << a.addr << ' ' << unsigned(a.len);
        for (unsigned b = 0; b < a.len; ++b)
            os << ' ' << unsigned(a.value[b]);
        os << '\n';
    }
    for (const auto &p : log.prefetchIssues()) {
        os << "pf " << p.tick << ' ' << p.node << ' ' << p.trigger
           << ' ' << p.block << '\n';
    }
    return os.str();
}

/** One lu run at @p shards with every observer attached. */
ObserverCapture
observersAtShards(unsigned shards)
{
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.meshCols = 4;
    cfg.prefetch.scheme = PrefetchScheme::IDet;
    cfg.shards = shards;
    Machine m(cfg);
    auto wl = apps::makeWorkload("lu", 1);
    m.enableSampling(5000);
    m.enableChromeTrace();
    check::AccessLog log;
    m.enableCommitRecording(log);
    wl->attach(m);
    m.run();
    EXPECT_TRUE(m.allFinished()) << "shards=" << shards;
    EXPECT_TRUE(wl->verify(m)) << "shards=" << shards;

    ObserverCapture cap;
    std::ostringstream stats, csv, json, chrome;
    m.dumpStats(stats);
    cap.stats = stats.str();
    m.sampler()->dumpCsv(csv);
    cap.samplerCsv = csv.str();
    m.sampler()->dumpJson(json);
    cap.samplerJson = json.str();
    m.chromeTracer()->write(chrome);
    cap.chrome = chrome.str();
    cap.commits = commitText(log);
    return cap;
}

} // namespace

TEST(ShardedObservers, ByteIdenticalAcrossShardCounts)
{
    // The tentpole contract: sampler series, chrome trace, and the
    // merged commit stream reproduce the --shards 1 reference exactly
    // at every partition.
    ObserverCapture ref = observersAtShards(1);
    ASSERT_FALSE(ref.samplerCsv.empty());
    ASSERT_FALSE(ref.chrome.empty());
    ASSERT_FALSE(ref.commits.empty());
    for (unsigned shards : {2u, 8u}) {
        ObserverCapture got = observersAtShards(shards);
        EXPECT_EQ(ref.stats, got.stats) << "shards=" << shards;
        EXPECT_EQ(ref.samplerCsv, got.samplerCsv) << "shards=" << shards;
        EXPECT_EQ(ref.samplerJson, got.samplerJson)
                << "shards=" << shards;
        EXPECT_EQ(ref.chrome, got.chrome) << "shards=" << shards;
        EXPECT_EQ(ref.commits, got.commits) << "shards=" << shards;
    }
}

TEST(ShardedObservers, AreReadOnlyOnTheShardedPath)
{
    // Attaching every observer must leave the sharded run untouched:
    // the aggregate dump is byte-identical with and without them.
    std::string plain = statsAtShards("lu", 8, PrefetchScheme::IDet);
    EXPECT_EQ(plain, observersAtShards(8).stats);
}

TEST(ShardedObservers, CommitStreamIdenticalForFuzzPrograms)
{
    // The oracle replays this stream; it must not depend on the
    // partition even for the irregular fuzz-generated programs.
    auto commitsAt = [](std::uint64_t seed, unsigned shards) {
        ProgramSpec spec = ProgramSpec::generate(seed);
        MachineConfig cfg;
        cfg.numProcs = spec.threads;
        if (cfg.numProcs < 4)
            cfg.meshCols = cfg.numProcs;
        cfg.prefetch.scheme = PrefetchScheme::Adaptive;
        cfg.prefetch.degree = spec.degree;
        cfg.seed = spec.seed;
        cfg.shards = shards;
        Machine m(cfg);
        FuzzWorkload wl(spec);
        check::AccessLog log;
        m.enableCommitRecording(log);
        wl.attach(m);
        m.run(50'000'000);
        EXPECT_TRUE(m.allFinished());
        return commitText(log);
    };
    for (std::uint64_t seed : {3ULL, 42ULL}) {
        std::string ref = commitsAt(seed, 1);
        ASSERT_FALSE(ref.empty());
        for (unsigned shards : {2u, 4u}) {
            EXPECT_EQ(ref, commitsAt(seed, shards))
                    << "seed " << seed << " shards " << shards;
        }
    }
}

TEST(ShardedObserversDeath, SerialOnlyObserversFailLoudly)
{
    // The one observer without a staging representation (the binary
    // SLC reference trace) must refuse the sharded engine with the
    // uniform gate message instead of silently interleaving records.
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.shards = 2;
    std::string path = std::string(::testing::TempDir()) +
                       "gate.psimtrace";
    EXPECT_DEATH(
            {
                Machine m(cfg);
                TraceWriter w(path);
                m.enableTracing(w);
            },
            "not shard-aware");
    std::remove(path.c_str());
}
