/**
 * @file
 * Small-piece coverage: Resource accounting, message classification,
 * logging helpers, and node-level message routing.
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "proto/message.hh"
#include "sim/logging.hh"
#include "sim/resource.hh"

using namespace psim;
using namespace psim::test;

TEST(Resource, UncontendedClaimStartsImmediately)
{
    Resource r;
    EXPECT_EQ(r.claim(10, 5), 10u);
    EXPECT_EQ(r.freeAt(), 15u);
    EXPECT_DOUBLE_EQ(r.busyTicks.value(), 5.0);
    EXPECT_DOUBLE_EQ(r.waitTicks.value(), 0.0);
}

TEST(Resource, ContendedClaimQueues)
{
    Resource r;
    r.claim(0, 10);
    Tick start = r.claim(3, 4);
    EXPECT_EQ(start, 10u);
    EXPECT_EQ(r.freeAt(), 14u);
    EXPECT_DOUBLE_EQ(r.waitTicks.value(), 7.0);
    EXPECT_DOUBLE_EQ(r.claims.value(), 2.0);
}

TEST(Resource, IdleGapDoesNotAccumulateWait)
{
    Resource r;
    r.claim(0, 5);
    Tick start = r.claim(100, 5);
    EXPECT_EQ(start, 100u);
    EXPECT_DOUBLE_EQ(r.waitTicks.value(), 0.0);
}

TEST(Message, ClassificationCoversAllTypes)
{
    // Memory-side messages.
    for (MsgType t : {MsgType::ReadReq, MsgType::ReadExReq,
                      MsgType::UpgradeReq, MsgType::WritebackReq,
                      MsgType::FetchReply, MsgType::InvAck,
                      MsgType::LockReq, MsgType::LockRel,
                      MsgType::BarrierArrive}) {
        EXPECT_TRUE(isForMemory(t)) << toString(t);
    }
    // Cache/processor-side messages.
    for (MsgType t : {MsgType::DataReply, MsgType::DataExReply,
                      MsgType::UpgradeAck, MsgType::WritebackAck,
                      MsgType::FetchReq, MsgType::FetchInvReq,
                      MsgType::InvReq, MsgType::LockGrant,
                      MsgType::BarrierGo}) {
        EXPECT_FALSE(isForMemory(t)) << toString(t);
    }
}

TEST(Message, DataCarriersAreExactlyTheBlockMovers)
{
    for (MsgType t : {MsgType::WritebackReq, MsgType::DataReply,
                      MsgType::DataExReply, MsgType::FetchReply}) {
        EXPECT_TRUE(carriesData(t)) << toString(t);
    }
    for (MsgType t : {MsgType::ReadReq, MsgType::InvReq,
                      MsgType::UpgradeAck, MsgType::LockGrant}) {
        EXPECT_FALSE(carriesData(t)) << toString(t);
    }
}

TEST(Message, EveryTypeHasAName)
{
    for (int i = 0; i <= static_cast<int>(MsgType::BarrierGo); ++i) {
        const char *name = toString(static_cast<MsgType>(i));
        EXPECT_STRNE(name, "?");
    }
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strfmt("%llx", 0xabcULL), "abc");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(psim_panic("boom %d", 7), "boom 7");
}

TEST(LoggingDeath, AssertMessageIncludesCondition)
{
    EXPECT_DEATH(psim_assert(1 == 2, "context %d", 5),
            "assertion failed: 1 == 2");
}

TEST(NodeRouting, SyncRepliesReachTheCpu)
{
    // End to end: a LockGrant must route to the CPU, not the SLC (a
    // mis-route would panic in Slc::receive).
    MachineConfig cfg;
    cfg.numProcs = 4;
    MiniSystem sys(cfg);
    Addr lock = 0x10000000 + cfg.pageSize; // remote home
    auto t = [](apps::ThreadCtx &ctx, Addr l) -> Task {
        co_await ctx.lock(l);
        co_await ctx.unlock(l);
    };
    sys.run(0, t(sys.ctx(0), lock));
    ASSERT_TRUE(sys.finish());
    EXPECT_DOUBLE_EQ(sys.m.node(0).cpu().locks.value(), 1.0);
}

TEST(Types, AlignmentHelpers)
{
    EXPECT_EQ(alignDown(0x1234, 32), 0x1220u);
    EXPECT_EQ(alignDown(0x1220, 32), 0x1220u);
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

namespace
{

/** pcOf's formula, written out without its per-file cache. */
Pc
referencePc(const std::source_location &loc)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char *p = loc.file_name(); *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(loc.line()) * 2654435761ULL;
    h ^= static_cast<std::uint64_t>(loc.column()) * 40503ULL;
    return static_cast<Pc>(h << 2);
}

} // namespace

TEST(PcOf, MatchesReferenceFnv1aForTwoSitesInOneFile)
{
    const std::source_location a = std::source_location::current();
    const std::source_location b = std::source_location::current();
    ASSERT_NE(a.line(), b.line());
    // The first call fills the file-hash cache, the later ones hit it.
    EXPECT_EQ(apps::pcOf(a), referencePc(a));
    EXPECT_EQ(apps::pcOf(b), referencePc(b));
    EXPECT_EQ(apps::pcOf(a), referencePc(a));
    EXPECT_NE(apps::pcOf(a), apps::pcOf(b));
    EXPECT_EQ(apps::pcOf(a) & 3, 0u);
}
