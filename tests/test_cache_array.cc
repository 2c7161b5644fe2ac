/**
 * @file
 * Unit tests for the generic cache tag/state array.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/cache_array.hh"

using namespace psim;

namespace
{
constexpr unsigned kBlk = 32;

/** The first @p n block addresses sharing one home slot of an
 *  initial-capacity BlockTable (its Fibonacci hash). */
std::vector<Addr>
collidingBlocks(std::size_t n)
{
    constexpr std::size_t kSlots = BlockTable<CacheBlk>::kInitialSlots;
    auto home = [](Addr a) {
        return (a * 0x9e3779b97f4a7c15ULL) >> (64 - log2Exact(kSlots));
    };
    std::vector<Addr> blocks;
    for (Addr a = kBlk; blocks.size() < n; a += kBlk) {
        if (home(a) == home(0))
            blocks.push_back(a);
    }
    return blocks;
}
} // namespace

TEST(CacheArray, InfiniteModeNeverEvicts)
{
    CacheArray c(0, 1, kBlk);
    ASSERT_TRUE(c.infinite());
    for (Addr a = 0; a < 10000 * kBlk; a += kBlk) {
        CacheBlk *f = c.findVictim(a);
        EXPECT_FALSE(f->valid()); // never a victim with data
        c.fill(f, a, CohState::Shared, 0);
    }
    EXPECT_EQ(c.numValid(), 10000u);
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_NE(c.find(9999 * kBlk), nullptr);
}

TEST(CacheArray, InfiniteInvalidateKeepsCollidingBlocks)
{
    CacheArray c(0, 1, kBlk);
    // Five blocks on one probe chain; the states and the written bits
    // tell them apart.
    std::vector<Addr> chain = collidingBlocks(5);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        c.fill(c.findVictim(chain[i]), chain[i],
               i % 2 ? CohState::Modified : CohState::Shared, i);
        c.find(chain[i])->prefetched = i == 2;
        c.find(chain[i])->written = i >= 3;
    }

    // Invalidate the head and the middle of the chain: each erase
    // shifts the later members back, and they must keep their state.
    for (std::size_t gone : {0u, 2u}) {
        CacheBlk *blk = c.find(chain[gone]);
        ASSERT_NE(blk, nullptr);
        c.invalidate(blk, chain[gone]);
        EXPECT_EQ(c.find(chain[gone]), nullptr);
    }
    EXPECT_EQ(c.numValid(), 3u);
    for (std::size_t i : {1u, 3u, 4u}) {
        const CacheBlk *blk = c.find(chain[i]);
        ASSERT_NE(blk, nullptr) << "block " << i;
        EXPECT_EQ(c.addrOf(blk), chain[i]);
        EXPECT_EQ(blk->state,
                  i % 2 ? CohState::Modified : CohState::Shared);
        EXPECT_FALSE(blk->prefetched);
        EXPECT_EQ(blk->written, i >= 3);
    }

    // The erased middle block refills as a fresh copy.
    CacheBlk *frame = c.findVictim(chain[2]);
    EXPECT_FALSE(frame->valid());
    EXPECT_FALSE(frame->prefetched);
    EXPECT_EQ(c.addrOf(frame), chain[2]);
    frame->written = true;
    c.fill(frame, chain[2], CohState::Shared, 9);
    const CacheBlk *back = c.find(chain[2]);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(c.addrOf(back), chain[2]);
    EXPECT_EQ(back->state, CohState::Shared);
    EXPECT_FALSE(back->written);
    EXPECT_EQ(c.numValid(), 4u);
}

TEST(CacheArray, FindMissesAbsentBlock)
{
    CacheArray c(1024, 1, kBlk);
    EXPECT_EQ(c.find(0x100), nullptr);
}

TEST(CacheArray, DirectMappedConflict)
{
    CacheArray c(1024, 1, kBlk); // 32 sets
    Addr a = 0;
    Addr b = 1024; // same set, different tag
    c.fill(c.findVictim(a), a, CohState::Shared, 0);
    EXPECT_NE(c.find(a), nullptr);

    CacheBlk *victim = c.findVictim(b);
    EXPECT_TRUE(victim->valid());
    EXPECT_EQ(c.addrOf(victim), a); // a must be the victim
    c.fill(victim, b, CohState::Modified, 1);
    EXPECT_EQ(c.find(a), nullptr);
    ASSERT_NE(c.find(b), nullptr);
    EXPECT_EQ(c.find(b)->state, CohState::Modified);
}

TEST(CacheArray, InvalidateFreesFrame)
{
    CacheArray c(1024, 1, kBlk);
    c.fill(c.findVictim(0), 0, CohState::Shared, 0);
    CacheBlk *blk = c.find(0);
    ASSERT_NE(blk, nullptr);
    blk->prefetched = true;
    c.invalidate(blk, 0);
    EXPECT_EQ(c.find(0), nullptr);
    EXPECT_FALSE(blk->prefetched) << "invalidate must clear the tag bit";

    CacheBlk *f = c.findVictim(0);
    EXPECT_FALSE(f->valid());
}

TEST(CacheArray, FillClearsPrefetchBit)
{
    CacheArray c(0, 1, kBlk);
    CacheBlk *f = c.findVictim(64);
    f->prefetched = true;
    c.fill(f, 64, CohState::Shared, 5);
    EXPECT_FALSE(f->prefetched);
    EXPECT_EQ(c.addrOf(f), 64u);
}

TEST(CacheArray, ForEachVisitsOnlyValid)
{
    CacheArray c(1024, 1, kBlk);
    c.fill(c.findVictim(0), 0, CohState::Shared, 0);
    c.fill(c.findVictim(kBlk), kBlk, CohState::Modified, 0);
    c.invalidate(c.find(0), 0);

    unsigned count = 0;
    c.forEach([&](Addr addr, const CacheBlk &blk) {
        ++count;
        EXPECT_EQ(addr, kBlk);
        EXPECT_EQ(blk.state, CohState::Modified);
    });
    EXPECT_EQ(count, 1u);
    EXPECT_EQ(c.numValid(), 1u);
}

namespace
{
/**
 * Fill blocks 0..n-1 (Modified when i % 3 == 0, else Shared),
 * invalidate every fourth one, and check that forEach passes each
 * surviving block with its own address and state exactly once.
 */
void
checkForEachAddresses(CacheArray &c, unsigned n)
{
    std::map<Addr, CohState> expect;
    for (unsigned i = 0; i < n; ++i) {
        Addr a = i * kBlk;
        CohState st = i % 3 ? CohState::Shared : CohState::Modified;
        c.fill(c.findVictim(a), a, st, i);
        expect[a] = st;
    }
    for (unsigned i = 0; i < n; i += 4) {
        Addr a = i * kBlk;
        c.invalidate(c.find(a), a);
        expect.erase(a);
    }
    std::map<Addr, CohState> seen;
    c.forEach([&](Addr addr, const CacheBlk &blk) {
        EXPECT_TRUE(seen.emplace(addr, blk.state).second)
                << "block " << addr << " visited twice";
    });
    EXPECT_EQ(seen, expect);
}
} // namespace

TEST(CacheArray, ForEachPassesAddressesFinite)
{
    CacheArray c(64 * kBlk, 1, kBlk); // 64 sets, no replacement below
    checkForEachAddresses(c, 64);
}

TEST(CacheArray, ForEachPassesAddressesInfinite)
{
    CacheArray c(0, 1, kBlk);
    checkForEachAddresses(c, 1000); // grows the table several times
}

TEST(CacheArray, SixteenKbDirectMappedGeometry)
{
    // The paper's finite SLC: 16 KB direct-mapped, 32 B blocks.
    CacheArray c(16384, 1, kBlk);
    EXPECT_EQ(c.numSets(), 512u);
    // Blocks 16 KB apart collide.
    c.fill(c.findVictim(0x0), 0x0, CohState::Shared, 0);
    CacheBlk *v = c.findVictim(0x4000);
    EXPECT_TRUE(v->valid());
    EXPECT_EQ(c.addrOf(v), 0x0u);
}
