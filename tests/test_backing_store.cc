/**
 * @file
 * Unit tests for the functional backing store.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "mem/backing_store.hh"

using namespace psim;

TEST(BackingStore, UntouchedMemoryReadsZero)
{
    BackingStore bs;
    EXPECT_EQ(bs.load<std::uint64_t>(0x1000), 0u);
    EXPECT_DOUBLE_EQ(bs.load<double>(0x2000), 0.0);
}

TEST(BackingStore, RoundTripsTypedValues)
{
    BackingStore bs;
    bs.store<double>(0x100, 3.25);
    bs.store<std::uint32_t>(0x108, 0xdeadbeef);
    bs.store<std::uint8_t>(0x10c, 7);
    EXPECT_DOUBLE_EQ(bs.load<double>(0x100), 3.25);
    EXPECT_EQ(bs.load<std::uint32_t>(0x108), 0xdeadbeefu);
    EXPECT_EQ(bs.load<std::uint8_t>(0x10c), 7u);
}

TEST(BackingStore, NeighbouringWritesDoNotClobber)
{
    BackingStore bs;
    bs.store<std::uint64_t>(0x0, ~0ULL);
    bs.store<std::uint64_t>(0x8, 0x1122334455667788ULL);
    EXPECT_EQ(bs.load<std::uint64_t>(0x0), ~0ULL);
    EXPECT_EQ(bs.load<std::uint64_t>(0x8), 0x1122334455667788ULL);
}

TEST(BackingStore, PagesAreIndependent)
{
    BackingStore bs;
    bs.store<std::uint64_t>(0x0FF8, 1); // last word of page 0
    bs.store<std::uint64_t>(0x1000, 2); // first word of page 1
    EXPECT_EQ(bs.load<std::uint64_t>(0x0FF8), 1u);
    EXPECT_EQ(bs.load<std::uint64_t>(0x1000), 2u);
}

TEST(BackingStore, RawReadWrite)
{
    BackingStore bs;
    const char msg[] = "hello";
    bs.write(0x500, msg, sizeof(msg));
    char out[sizeof(msg)];
    bs.read(0x500, out, sizeof(out));
    EXPECT_STREQ(out, "hello");
}

TEST(BackingStore, SparsePagesDoNotInterfere)
{
    BackingStore bs;
    bs.store<double>(0x10000000, 1.5);
    bs.store<double>(0x90000000, 2.5);
    EXPECT_DOUBLE_EQ(bs.load<double>(0x10000000), 1.5);
    EXPECT_DOUBLE_EQ(bs.load<double>(0x90000000), 2.5);
}

TEST(BackingStore, ManyPagesRoundTripAndAreEachVisitedOnce)
{
    // Enough pages to grow the page table past its initial capacity,
    // strided so neighbouring pages share no low address bits.
    constexpr unsigned kPages = 300;
    constexpr Addr kStride = 0x11000;
    BackingStore bs;
    for (Addr p = 0; p < kPages; ++p) {
        bs.store<std::uint64_t>(p * kStride, p);
        bs.store<std::uint64_t>(p * kStride + 4088, ~p);
    }
    for (Addr p = 0; p < kPages; ++p) {
        EXPECT_EQ(bs.load<std::uint64_t>(p * kStride), p);
        EXPECT_EQ(bs.load<std::uint64_t>(p * kStride + 4088), ~p);
    }

    std::map<Addr, int> visits;
    bs.forEachPage([&](Addr base, const std::uint8_t *bytes, unsigned len) {
        ++visits[base];
        EXPECT_EQ(len, 4096u);
        std::uint64_t first;
        std::memcpy(&first, bytes, sizeof(first));
        EXPECT_EQ(first * kStride, base);
    });
    EXPECT_EQ(visits.size(), kPages);
    for (const auto &[base, n] : visits) {
        EXPECT_EQ(base % kStride, 0u);
        EXPECT_EQ(n, 1) << "page " << base;
    }
}

TEST(BackingStoreDeath, MisalignedAccessPanics)
{
    BackingStore bs;
    EXPECT_DEATH(bs.load<double>(0x101), "misaligned");
    EXPECT_DEATH(bs.store<std::uint32_t>(0x102, 1), "misaligned");
}
