/**
 * @file
 * Unit tests for the FLWB: FIFO order, capacity, retry on a refusing
 * consumer, space callbacks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/write_buffer.hh"
#include "sim/event_queue.hh"

using namespace psim;

namespace
{

struct Harness
{
    EventQueue eq;
    MachineConfig cfg;
    Flwb flwb{eq, cfg, 0};
    std::vector<FlwbEntry> consumed;
    bool accept = true;
    int space_calls = 0;

    /** Fire this buffer's FlwbPump events up to @p limit. */
    Tick
    run(Tick limit = kTickNever)
    {
        return eq.run(limit, [this](EventKind kind, const Message &) {
            EXPECT_EQ(kind, EventKind::FlwbPump);
            flwb.pump(
                    [this](const FlwbEntry &e) {
                        if (!accept)
                            return false;
                        consumed.push_back(e);
                        return true;
                    },
                    [this] { ++space_calls; });
        });
    }

    FlwbEntry
    entry(Addr a, FlwbEntry::Kind k = FlwbEntry::Kind::Write)
    {
        FlwbEntry e;
        e.kind = k;
        e.addr = a;
        return e;
    }
};

} // namespace

TEST(Flwb, DrainsInFifoOrder)
{
    Harness h;
    h.flwb.push(h.entry(1));
    h.flwb.push(h.entry(2, FlwbEntry::Kind::ReadMiss));
    h.flwb.push(h.entry(3));
    h.run();
    ASSERT_EQ(h.consumed.size(), 3u);
    EXPECT_EQ(h.consumed[0].addr, 1u);
    EXPECT_EQ(h.consumed[1].addr, 2u);
    EXPECT_EQ(h.consumed[1].kind, FlwbEntry::Kind::ReadMiss);
    EXPECT_EQ(h.consumed[2].addr, 3u);
    EXPECT_TRUE(h.flwb.empty());
}

TEST(Flwb, EachDrainTakesOneFlwbLatency)
{
    Harness h;
    h.flwb.push(h.entry(1));
    h.run();
    EXPECT_EQ(h.eq.now(), h.cfg.flwbLat);
}

TEST(Flwb, ReportsFullAtCapacity)
{
    Harness h;
    h.accept = false;
    for (unsigned i = 0; i < h.cfg.flwbEntries; ++i) {
        EXPECT_FALSE(h.flwb.full());
        h.flwb.push(h.entry(i));
    }
    EXPECT_TRUE(h.flwb.full());
}

TEST(Flwb, RetriesWhileConsumerRefuses)
{
    Harness h;
    h.accept = false;
    h.flwb.push(h.entry(7));
    // Let it retry a few times, then open the consumer.
    h.run(20);
    EXPECT_TRUE(h.consumed.empty());
    EXPECT_GT(h.flwb.retries.value(), 0.0);
    h.accept = true;
    h.run();
    ASSERT_EQ(h.consumed.size(), 1u);
    EXPECT_EQ(h.consumed[0].addr, 7u);
}

TEST(Flwb, SpaceCallbackFiresPerDrain)
{
    Harness h;
    h.flwb.push(h.entry(1));
    h.flwb.push(h.entry(2));
    h.run();
    EXPECT_EQ(h.space_calls, 2);
}

TEST(Flwb, OrderPreservedAcrossRefusal)
{
    Harness h;
    h.accept = false;
    h.flwb.push(h.entry(1));
    h.flwb.push(h.entry(2));
    h.run(10);
    h.accept = true;
    h.run();
    ASSERT_EQ(h.consumed.size(), 2u);
    EXPECT_EQ(h.consumed[0].addr, 1u);
    EXPECT_EQ(h.consumed[1].addr, 2u);
}

TEST(FlwbDeath, OverflowPanics)
{
    Harness h;
    h.accept = false;
    for (unsigned i = 0; i < h.cfg.flwbEntries; ++i)
        h.flwb.push(h.entry(i));
    EXPECT_DEATH(h.flwb.push(h.entry(99)), "FLWB overflow");
}
