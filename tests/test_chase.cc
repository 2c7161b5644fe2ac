/**
 * @file
 * Unit tests for the pointer-chase prefetcher: the live-heap envelope,
 * raw-pointer chasing, the chase-depth bound, and the indirect-index
 * pattern table (self-chase and producer/consumer shapes).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/chase.hh"

using namespace psim;

namespace
{

constexpr unsigned kBlock = 32;

/** A 32-byte content block with u32 words written at given offsets. */
struct Block
{
    std::uint8_t bytes[kBlock] = {};

    Block &
    u32(unsigned off, std::uint32_t v)
    {
        std::memcpy(bytes + off, &v, sizeof(v));
        return *this;
    }

    Block &
    u64(unsigned off, std::uint64_t v)
    {
        std::memcpy(bytes + off, &v, sizeof(v));
        return *this;
    }
};

ChasePrefetcher
makeChase()
{
    return ChasePrefetcher(kBlock, std::make_unique<NullPrefetcher>());
}

/** Demand miss with no content: grows the envelope, trains learning. */
void
demand(ChasePrefetcher &pf, Pc pc, Addr addr)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    pf.observeRead(obs, out);
}

/** Demand hit carrying the block's content view. */
std::vector<Addr>
hitWithContent(ChasePrefetcher &pf, Pc pc, Addr addr, const Block &b)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    obs.hit = true;
    obs.content = b.bytes;
    obs.contentLen = kBlock;
    pf.observeRead(obs, out);
    return out;
}

/** Synthesized fill of a block no demand has touched yet. */
std::vector<Addr>
prefetchFill(ChasePrefetcher &pf, Pc pc, Addr addr, const Block &b)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    obs.fill = true;
    obs.prefetchFill = true;
    obs.content = b.bytes;
    obs.contentLen = kBlock;
    pf.observeRead(obs, out);
    return out;
}

// PCs chosen to map to distinct pattern-table slots (index = (pc>>2)%64).
constexpr Pc kEnvPc = 0x2000;  // slot 0
constexpr Pc kLoadPc = 0x104;  // slot 1
constexpr Pc kProdPc = 0x208;  // slot 2

} // namespace

TEST(Chase, RawPointerInsideEnvelopeIsChased)
{
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x50000);

    Block b;
    b.u64(0, 0x48000); // 8-aligned, inside [0x40000, 0x50008)
    auto out = hitWithContent(pf, kLoadPc, 0x40000, b);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x48000u);
    EXPECT_DOUBLE_EQ(pf.rawCandidates.value(), 1.0);
}

TEST(Chase, ValuesOutsideEnvelopeAreNotPointers)
{
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x50000);

    Block b;
    b.u64(0, 0x60000);  // above the envelope
    b.u64(8, 0x48001);  // inside but unaligned
    b.u64(16, 0x40010); // own block: self-pointer, skipped
    auto out = hitWithContent(pf, kLoadPc, 0x40000, b);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(pf.rawCandidates.value(), 0.0);
}

TEST(Chase, DepthBoundClipsChains)
{
    // A chain anchored at a demand-touched block (depth 0) runs
    // chaseDepth hops: each chased block's content chases once more
    // until the chain reaches the bound.
    static_assert(PrefetchConfig::chaseDepth == 2);
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x50000);

    Block b0;
    b0.u64(0, 0x49000);
    auto out = hitWithContent(pf, kLoadPc, 0x48000, b0);
    ASSERT_EQ(out.size(), 1u); // hop 1, recorded at depth 1
    EXPECT_EQ(out[0], 0x49000u);

    Block b1;
    b1.u64(0, 0x4A000);
    out = prefetchFill(pf, kLoadPc, 0x49000, b1);
    ASSERT_EQ(out.size(), 1u); // hop 2, recorded at depth 2
    EXPECT_EQ(out[0], 0x4A000u);
    EXPECT_DOUBLE_EQ(pf.depthClipped.value(), 0.0);

    Block b2;
    b2.u64(0, 0x4B000);
    out = prefetchFill(pf, kLoadPc, 0x4A000, b2);
    EXPECT_TRUE(out.empty()); // a third hop would pass the bound
    EXPECT_DOUBLE_EQ(pf.depthClipped.value(), 1.0);
}

TEST(Chase, DepthTwoFollowsOneExtraHop)
{
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x50000);

    // Hop 1: a fresh prefetch's content points at 0x49000 -> chased.
    Block b1;
    b1.u64(0, 0x49000);
    auto out = prefetchFill(pf, kLoadPc, 0x48000, b1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x49000u);

    // Hop 2: the chased block's own fill arrives at depth 2 -> clipped.
    Block b2;
    b2.u64(0, 0x4A000);
    out = prefetchFill(pf, kLoadPc, 0x49000, b2);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(pf.depthClipped.value(), 1.0);

    // A demand touch re-anchors the chain at depth 0: the same block's
    // content chases again.
    demand(pf, kLoadPc, 0x49000);
    out = prefetchFill(pf, kLoadPc, 0x49000, b2);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x4A000u);
}

TEST(Chase, LearnsSelfChasePattern)
{
    // Intrusive list over 4-byte-indexed records at base 0x40000: each
    // record stores the next index at byte offset 4.
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x70000);

    // Record 1's content names index 0x100; the next miss lands at
    // base + (0x100 << 2): first hypothesis installs.
    Block r1;
    r1.u32(4, 0x100);
    hitWithContent(pf, kLoadPc, 0x50000, r1);
    demand(pf, kLoadPc, 0x40000 + (0x100u << 2));
    ASSERT_NE(pf.lookup(kLoadPc), nullptr);
    EXPECT_EQ(pf.lookup(kLoadPc)->conf, 1u);

    // A second (value, miss) pair with the same base confirms it.
    Block r2;
    r2.u32(4, 0x200);
    hitWithContent(pf, kLoadPc, 0x50020, r2);
    demand(pf, kLoadPc, 0x40000 + (0x200u << 2));
    const ChasePrefetcher::Pattern *p = pf.lookup(kLoadPc);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(p->conf, ChasePrefetcher::kLearned);
    EXPECT_EQ(p->base, 0x40000u);
    EXPECT_EQ(p->shift, 2u);
    EXPECT_EQ(p->srcPc, kLoadPc);
    EXPECT_EQ(p->srcOff, 4u);
    EXPECT_DOUBLE_EQ(pf.patternsLearned.value(), 1.0);

    // Confirmed: the next record read prefetches its successor straight
    // from the link field.
    Block r3;
    r3.u32(4, 0x300);
    auto out = hitWithContent(pf, kLoadPc, 0x50040, r3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x40000u + (0x300u << 2));
    EXPECT_DOUBLE_EQ(pf.indirectCandidates.value(), 1.0);
}

TEST(Chase, ProducerConsumerBanksAndSpends)
{
    // BFS shape: one load streams an index array (producer), another
    // consumes data[idx << 2] (consumer).
    ChasePrefetcher pf = makeChase();
    demand(pf, kEnvPc, 0x40000);
    demand(pf, kEnvPc, 0x70000);

    // Learn: producer content supplies the value, consumer misses at
    // base + (value << 2).
    Block i1;
    i1.u32(0, 0x400);
    hitWithContent(pf, kProdPc, 0x60000, i1);
    demand(pf, kLoadPc, 0x40000 + (0x400u << 2));
    Block i2;
    i2.u32(0, 0x500);
    hitWithContent(pf, kProdPc, 0x60020, i2);
    demand(pf, kLoadPc, 0x40000 + (0x500u << 2));

    const ChasePrefetcher::Pattern *p = pf.lookup(kLoadPc);
    ASSERT_NE(p, nullptr);
    ASSERT_GE(p->conf, ChasePrefetcher::kLearned);
    EXPECT_EQ(p->srcPc, kProdPc);

    // A fresh producer block banks its indices without emitting: the
    // candidates must land from the consumer's trigger to clear the
    // SLC's same-page filter.
    Block i3;
    i3.u32(0, 0x600).u32(4, 0x610);
    auto out = hitWithContent(pf, kProdPc, 0x60040, i3);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.lookup(kLoadPc)->npending, 2u);

    // The consumer's next reference spends every banked index.
    std::vector<Addr> spend;
    ReadObservation trig;
    trig.pc = kLoadPc;
    trig.addr = 0x40000 + (0x600u << 2);
    pf.observeRead(trig, spend);
    ASSERT_EQ(spend.size(), 2u);
    EXPECT_EQ(spend[0], 0x40000u + (0x600u << 2));
    EXPECT_EQ(spend[1], 0x40000u + (0x610u << 2));
    EXPECT_EQ(pf.lookup(kLoadPc)->npending, 0u);
}
