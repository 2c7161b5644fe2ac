/**
 * @file
 * Unit tests for the open-addressed block table: a differential run
 * against std::unordered_map, probe chains that wrap the end of the
 * table, growth from the initial capacity, iteration, and the reserved
 * key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/block_table.hh"

using namespace psim;

namespace
{

/** Home slot of @p key in a table of @p slots (BlockTable's hash). */
std::size_t
homeSlot(Addr key, std::size_t slots)
{
    return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> (64 - log2Exact(slots)));
}

/** The first @p n block addresses whose home is @p slot. */
std::vector<Addr>
keysHomedAt(std::size_t slot, std::size_t slots, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr a = 0; keys.size() < n; a += 32) {
        if (homeSlot(a, slots) == slot)
            keys.push_back(a);
    }
    return keys;
}

} // namespace

TEST(BlockTable, DifferentialAgainstUnorderedMap)
{
    BlockTable<std::uint64_t> table;
    std::unordered_map<Addr, std::uint64_t> ref;
    std::mt19937_64 rng(12345);
    // A small key space keeps the hit, miss and erase paths all busy;
    // block-aligned keys match how the simulator uses the table.
    std::uniform_int_distribution<Addr> key(0, 4095);
    std::uniform_int_distribution<int> op(0, 99);
    for (int i = 0; i < 200'000; ++i) {
        Addr k = key(rng) * 32;
        int o = op(rng);
        if (o < 45) {
            std::uint64_t v = rng();
            table[k] = v;
            ref[k] = v;
        } else if (o < 75) {
            EXPECT_EQ(table.erase(k), ref.erase(k) == 1) << "op " << i;
        } else {
            const std::uint64_t *got = table.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << i;
            if (got) {
                EXPECT_EQ(*got, it->second) << "op " << i;
            }
            EXPECT_EQ(table.contains(k), it != ref.end());
        }
        ASSERT_EQ(table.size(), ref.size()) << "op " << i;
    }
    for (const auto &[k, v] : ref) {
        const std::uint64_t *got = table.find(k);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, v);
    }
}

TEST(BlockTable, ProbeChainsThatWrapTheEndSurviveErasure)
{
    constexpr std::size_t kSlots = BlockTable<int>::kInitialSlots;
    BlockTable<int> table;
    // Six keys homed at the last slot fill it and wrap to slots 0..4;
    // two more homed at slot 0 queue behind them, further around.
    std::vector<Addr> tail = keysHomedAt(kSlots - 1, kSlots, 6);
    std::vector<Addr> head = keysHomedAt(0, kSlots, 2);
    std::vector<Addr> all = tail;
    all.insert(all.end(), head.begin(), head.end());
    for (std::size_t i = 0; i < all.size(); ++i)
        table[all[i]] = static_cast<int>(i);
    ASSERT_EQ(table.capacity(), kSlots);

    // Erase from the middle of the wrapped chain, then its first
    // member: every survivor must stay reachable after each shift.
    std::vector<bool> gone(all.size(), false);
    for (std::size_t victim : {3u, 0u, 6u, 5u}) {
        EXPECT_TRUE(table.erase(all[victim]));
        EXPECT_FALSE(table.erase(all[victim]));
        gone[victim] = true;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const int *v = table.find(all[i]);
            if (gone[i]) {
                EXPECT_EQ(v, nullptr) << "key " << i;
            } else {
                ASSERT_NE(v, nullptr) << "key " << i;
                EXPECT_EQ(*v, static_cast<int>(i));
            }
        }
    }
    for (std::size_t i = 0; i < all.size(); ++i)
        table.erase(all[i]);
    EXPECT_EQ(table.size(), 0u);
}

TEST(BlockTable, GrowsFromTheInitialCapacity)
{
    BlockTable<Addr> table;
    EXPECT_EQ(table.capacity(), 0u); // nothing allocated before use
    EXPECT_EQ(table.find(0), nullptr);
    EXPECT_FALSE(table.erase(0));
    table[0] = ~Addr{0};
    EXPECT_EQ(table.capacity(), BlockTable<Addr>::kInitialSlots);
    std::size_t last_cap = table.capacity();
    for (Addr i = 1; i < 5000; ++i) {
        Addr k = i * 4096; // page-strided: the worst case for a weak hash
        table[k] = ~k;
        // Doubling keeps the load at or below 0.7.
        EXPECT_LE(table.size() * 10, table.capacity() * 7);
        EXPECT_TRUE(table.capacity() == last_cap ||
                    table.capacity() == 2 * last_cap);
        last_cap = table.capacity();
    }
    EXPECT_EQ(table.capacity(), 8192u);
    for (Addr i = 0; i < 5000; ++i) {
        const Addr *v = table.find(i * 4096);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, ~(i * 4096));
    }
    EXPECT_EQ(table.find(5000 * 4096), nullptr);
}

TEST(BlockTable, ErasingEveryKeyLeavesItEmpty)
{
    BlockTable<std::vector<int>> table;
    std::vector<Addr> keys;
    std::mt19937_64 rng(777);
    for (int i = 0; i < 1000; ++i) {
        Addr k = (rng() >> 8) & ~Addr{31};
        if (!table.contains(k))
            keys.push_back(k);
        table[k].push_back(i);
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    for (Addr k : keys)
        EXPECT_TRUE(table.erase(k));
    EXPECT_EQ(table.size(), 0u);
    for (Addr k : keys)
        EXPECT_FALSE(table.contains(k));
    // A re-inserted key starts from a fresh (value-initialized) value.
    EXPECT_TRUE(table[keys.front()].empty());
}

TEST(BlockTable, ForEachVisitsEveryLiveKeyOnce)
{
    BlockTable<Addr> table;
    std::unordered_map<Addr, Addr> ref;
    auto check = [&](const char *when) {
        std::unordered_map<Addr, int> seen;
        table.forEach([&](Addr k, const Addr &v) {
            ++seen[k];
            auto it = ref.find(k);
            ASSERT_NE(it, ref.end()) << when << ": dead key " << k;
            EXPECT_EQ(v, it->second) << when;
        });
        EXPECT_EQ(seen.size(), ref.size()) << when;
        for (const auto &[k, n] : seen)
            EXPECT_EQ(n, 1) << when << ": key " << k;
    };
    check("empty");
    for (Addr i = 0; i < 40; ++i) {
        table[i * 32] = ~i;
        ref[i * 32] = ~i;
    }
    ASSERT_EQ(table.capacity(), BlockTable<Addr>::kInitialSlots);
    check("after inserts");
    for (Addr i = 0; i < 40; i += 3) {
        table.erase(i * 32);
        ref.erase(i * 32);
    }
    check("after erases");
    for (Addr i = 40; i < 500; ++i) {
        table[i * 32] = ~i;
        ref[i * 32] = ~i;
    }
    ASSERT_GT(table.capacity(), BlockTable<Addr>::kInitialSlots);
    check("after growth");
}

TEST(BlockTableDeath, InsertingTheEmptyKeyIsFatal)
{
    BlockTable<int> table;
    EXPECT_EQ(table.find(kAddrInvalid), nullptr);
    EXPECT_FALSE(table.erase(kAddrInvalid));
    EXPECT_DEATH(table[kAddrInvalid] = 1, "kAddrInvalid");
}
