/**
 * @file
 * Unit tests for the generic cache tag/state array.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "mem/cache_array.hh"

using namespace psim;

namespace
{
constexpr unsigned kBlk = 32;
constexpr Addr kSector = CacheArray::kSectorBlocks * kBlk;

/** Blocks in the first @p n sectors whose addresses share one home
 *  slot of an initial-capacity BlockTable (its Fibonacci hash); the
 *  i-th block sits at index i % 8 of its sector. */
std::vector<Addr>
collidingBlocks(std::size_t n)
{
    constexpr std::size_t kSlots = BlockTable<CacheBlk>::kInitialSlots;
    auto home = [](Addr a) {
        return (a * 0x9e3779b97f4a7c15ULL) >> (64 - log2Exact(kSlots));
    };
    std::vector<Addr> blocks;
    for (Addr s = kSector; blocks.size() < n; s += kSector) {
        if (home(s) == home(0))
            blocks.push_back(s + blocks.size() % 8 * kBlk);
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

TEST(CacheArray, InfiniteInvalidateKeepsCollidingSectors)
{
    CacheArray c(0, 1, kBlk);
    // Five blocks whose sectors lie on one probe chain; the states and
    // the written bits tell them apart.
    std::vector<Addr> chain = collidingBlocks(5);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        c.fill(c.findVictim(chain[i]), chain[i],
               i % 2 ? CohState::Modified : CohState::Shared, i);
        c.find(chain[i])->prefetched = i == 2;
        c.find(chain[i])->written = i >= 3;
    }

    // Invalidate the head and the middle of the chain: each empties its
    // sector, whose erase shifts the later members back, and they must
    // keep their state.
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
        EXPECT_EQ(blk->state,
                  i % 2 ? CohState::Modified : CohState::Shared);
        EXPECT_FALSE(blk->prefetched);
        EXPECT_EQ(blk->written, i >= 3);
    }

    // The erased middle block refills as a fresh copy.
    CacheBlk *frame = c.findVictim(chain[2]);
    EXPECT_FALSE(frame->valid());
    EXPECT_FALSE(frame->prefetched);
    frame->written = true;
    c.fill(frame, chain[2], CohState::Shared, 9);
    const CacheBlk *back = c.find(chain[2]);
    ASSERT_EQ(back, c.findVictim(chain[2]));
    EXPECT_EQ(back->state, CohState::Shared);
    EXPECT_FALSE(back->written);
    EXPECT_EQ(c.numValid(), 4u);
}

TEST(CacheArray, InfiniteSectorSharesOneSlotAcrossItsBlocks)
{
    for (unsigned blk : {32u, 128u}) {
        CacheArray c(0, 1, blk);
        const Addr sector = CacheArray::kSectorBlocks * blk;
        // The last block of sector 2 and the first of sector 3.
        const Addr below = 3 * sector - blk;
        const Addr above = 3 * sector;
        c.fill(c.findVictim(below), below, CohState::Modified, 0);
        c.fill(c.findVictim(above), above, CohState::Shared, 0);
        EXPECT_EQ(c.find(below - blk), nullptr);
        EXPECT_EQ(c.find(above + blk), nullptr);
        c.invalidate(c.find(below), below);
        EXPECT_EQ(c.find(below), nullptr);
        ASSERT_NE(c.find(above), nullptr);
        EXPECT_EQ(c.find(above)->state, CohState::Shared);

        // Fill all eight blocks of sector 3: each sits at its own index.
        for (unsigned i = 1; i < CacheArray::kSectorBlocks; ++i) {
            Addr a = above + i * blk;
            c.fill(c.findVictim(a), a, CohState::Modified, 0);
            c.find(a)->written = i % 2;
        }
        for (unsigned i = 0; i < CacheArray::kSectorBlocks; ++i) {
            const CacheBlk *b = c.find(above + i * blk);
            ASSERT_NE(b, nullptr) << i;
            EXPECT_EQ(b - c.find(above), static_cast<std::ptrdiff_t>(i));
            EXPECT_EQ(b->written, i % 2 == 1);
        }
        EXPECT_EQ(c.numValid(), CacheArray::kSectorBlocks);

        // Empty the sector, then refill one block: it comes back clean.
        for (unsigned i = 0; i < CacheArray::kSectorBlocks; ++i) {
            Addr a = above + i * blk;
            CacheBlk *b = c.find(a);
            ASSERT_NE(b, nullptr) << i;
            b->prefetched = true;
            c.invalidate(b, a);
        }
        EXPECT_EQ(c.numValid(), 0u);
        CacheBlk *f = c.findVictim(above + 5 * blk);
        EXPECT_FALSE(f->valid());
        EXPECT_FALSE(f->prefetched);
        EXPECT_FALSE(f->written);
        c.fill(f, above + 5 * blk, CohState::Shared, 0);
        EXPECT_EQ(c.numValid(), 1u);
    }
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
    EXPECT_EQ(c.find(64), f);
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
        CacheBlk *blk = c.find(a);
        ASSERT_NE(blk, nullptr) << "block " << a;
        c.invalidate(blk, a);
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

namespace
{
bool
sameBlk(const CacheBlk &a, const CacheBlk &b)
{
    return a.state == b.state && a.prefetched == b.prefetched &&
           a.written == b.written;
}

/**
 * Drive an infinite array and a std::map reference with the same
 * seeded random fills, invalidations and bit updates, over a dense
 * window that straddles sector boundaries plus sparse blocks far
 * apart; compare every find and, periodically, the whole forEach.
 */
void
checkAgainstMap(unsigned blk, std::uint64_t seed)
{
    CacheArray c(0, 1, blk);
    std::map<Addr, CacheBlk> ref;
    std::mt19937_64 rng(seed);
    const Addr sector = CacheArray::kSectorBlocks * blk;
    // 40 blocks from three blocks below a sector boundary.
    const Addr dense = 7 * sector - 3 * blk;
    auto pick = [&]() -> Addr {
        if (rng() % 4)
            return dense + rng() % 40 * blk;
        return (rng() % (Addr{1} << 24)) * blk;
    };
    auto sectorEmpty = [&](Addr a) {
        auto lo = ref.lower_bound(a - a % sector);
        return lo == ref.end() || lo->first >= a - a % sector + sector;
    };

    unsigned refilled = 0;
    std::map<Addr, bool> emptied; // sector -> emptied since last fill
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr a = pick();
        auto it = ref.find(a);
        switch (rng() % 3) {
          case 0: // fill an absent block
            if (it == ref.end()) {
                if (emptied[a - a % sector]) {
                    ++refilled;
                    emptied[a - a % sector] = false;
                }
                CacheBlk *f = c.findVictim(a);
                ASSERT_FALSE(f->valid());
                CohState st = rng() % 2 ? CohState::Modified
                                        : CohState::Shared;
                c.fill(f, a, st, op);
                f->prefetched = rng() % 2;
                ref[a] = *f;
            }
            break;
          case 1: // invalidate a resident block
            if (it != ref.end()) {
                CacheBlk *b = c.find(a);
                ASSERT_NE(b, nullptr) << "block " << a << " op " << op;
                c.invalidate(b, a);
                ref.erase(it);
                if (sectorEmpty(a))
                    emptied[a - a % sector] = true;
            }
            break;
          default: // update a resident block's bits in place
            if (it != ref.end()) {
                CacheBlk *b = c.find(a);
                ASSERT_NE(b, nullptr);
                b->written = rng() % 2;
                if (rng() % 2)
                    b->prefetched = false;
                it->second = *b;
            }
            break;
        }
        const CacheBlk *got = c.find(a);
        auto want = ref.find(a);
        if (want == ref.end()) {
            ASSERT_EQ(got, nullptr) << "block " << a << " op " << op;
        } else {
            ASSERT_NE(got, nullptr) << "block " << a << " op " << op;
            ASSERT_TRUE(sameBlk(*got, want->second)) << "block " << a;
        }
        if (op % 1000 == 999) {
            std::map<Addr, CacheBlk> seen;
            c.forEach([&](Addr addr, const CacheBlk &b) {
                EXPECT_TRUE(seen.emplace(addr, b).second)
                        << "block " << addr << " visited twice";
            });
            ASSERT_EQ(seen.size(), ref.size());
            for (const auto &[addr, b] : ref) {
                ASSERT_TRUE(seen.contains(addr)) << "block " << addr;
                ASSERT_TRUE(sameBlk(seen[addr], b)) << "block " << addr;
            }
            ASSERT_EQ(c.numValid(), ref.size());
        }
    }
    // The dense window emptied sectors and refilled them, on both
    // sides of its sector boundaries.
    EXPECT_GT(refilled, 10u);
}
} // namespace

TEST(CacheArray, InfiniteMatchesMapReference)
{
    // The block sizes ablation_blocksize runs.
    for (unsigned blk : {32u, 128u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message() << "block " << blk
                                            << " seed " << seed);
            checkAgainstMap(blk, seed);
        }
    }
}
