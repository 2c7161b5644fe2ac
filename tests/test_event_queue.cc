/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace psim;

namespace
{

/**
 * Drives the queue with test-side actions: each event's payload carries
 * the index of the action it fires, and run() dispatches on it.
 */
struct ActionQueue : EventQueue
{
    std::vector<std::function<void()>> actions;

    void
    schedule(Tick when, std::function<void()> f)
    {
        actions.push_back(std::move(f));
        EventQueue::schedule(when, EventKind::CpuResume, 0,
                actions.size() - 1);
    }

    void
    scheduleIn(Tick delta, std::function<void()> f)
    {
        schedule(now() + delta, std::move(f));
    }

    Tick
    run(Tick limit = kTickNever)
    {
        return EventQueue::run(limit, [this](EventKind, const Message &m) {
            auto f = actions[m.addr]; // an action may add actions
            f();
        });
    }
};

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    ActionQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, DispatchReceivesKindAndPayload)
{
    EventQueue eq;
    Message msg;
    msg.type = MsgType::FetchInvReq;
    msg.src = 3;
    msg.dst = 7;
    msg.addr = 0x1240;
    eq.schedule(4, EventKind::MsgMeshArrive, msg);
    eq.schedule(2, EventKind::CpuFlcMiss, 9, 0x80, 0x44);
    std::vector<std::pair<EventKind, Message>> got;
    eq.run(kTickNever, [&](EventKind k, const Message &m) {
        got.emplace_back(k, m);
    });
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, EventKind::CpuFlcMiss);
    EXPECT_EQ(got[0].second.dst, 9u);
    EXPECT_EQ(got[0].second.addr, 0x80u);
    EXPECT_EQ(got[0].second.pc, 0x44u);
    EXPECT_EQ(got[1].first, EventKind::MsgMeshArrive);
    EXPECT_EQ(got[1].second.type, MsgType::FetchInvReq);
    EXPECT_EQ(got[1].second.src, 3u);
    EXPECT_EQ(got[1].second.dst, 7u);
    EXPECT_EQ(got[1].second.addr, 0x1240u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    ActionQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    ActionQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    ActionQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunHonorsLimit)
{
    ActionQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    Tick t = eq.run(50);
    EXPECT_EQ(t, 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

// The wheel covers [now, now + kWheelSize); anything farther goes
// through the overflow heap. The delays below are relative to that
// horizon so the heap stays exercised whatever the wheel's size.
constexpr Tick kWheel = EventQueue::kWheelSize;

TEST(EventQueue, InsertionOrderTiesAcrossWheelAndHeap)
{
    // Two events at the same tick, one through the overflow heap
    // (scheduled past the horizon) and one through the time wheel
    // (scheduled when the tick was near): firing order is insertion
    // order.
    constexpr Tick kTie = kWheel + 44;
    {
        ActionQueue eq;
        std::vector<int> order;
        eq.schedule(kTie, [&] { order.push_back(1); }); // heap, seq 1
        eq.schedule(100, [&] {
            eq.schedule(kTie, [&] { order.push_back(2); }); // wheel
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    }
    {
        ActionQueue eq;
        std::vector<int> order;
        eq.schedule(100, [&] {
            // Scheduled at t=100, i.e. after the heap event below was
            // inserted: it ties at kTie but loses the insertion-order
            // tie-break even though it sits in the faster container.
            eq.schedule(kTie, [&] { order.push_back(1); });
        });
        eq.schedule(kTie, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{2, 1}));
    }
}

TEST(EventQueue, LongAndShortDelaysInterleaveInTimeOrder)
{
    ActionQueue eq;
    std::vector<Tick> fired_at;
    // Mix of wheel-horizon hits and heap residents.
    for (Tick d : {kWheel + kWheel / 2, Tick{1}, kWheel - 1, kWheel,
                   4 * kWheel, Tick{7}, 2 * kWheel, kWheel + 1})
        eq.scheduleIn(d, [&] { fired_at.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> sorted = fired_at;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired_at, sorted);
    EXPECT_EQ(fired_at.size(), 8u);
    EXPECT_EQ(eq.now(), 4 * kWheel);
}

TEST(EventQueue, NextBucketWrapsFromLastBitmapWordToFirst)
{
    // Park now in the wheel's last occupancy word (the top 64 buckets).
    // The next event sits later in that word, and the one after it wraps
    // to word 0.
    ActionQueue eq;
    std::vector<Tick> fired;
    auto record = [&] { fired.push_back(eq.now()); };
    const Tick start = kWheel - 40;
    eq.schedule(start, [&] {
        eq.scheduleIn(kWheel - 10, record);
        eq.scheduleIn(45, record);
        eq.scheduleIn(20, record);
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{start + 20, start + 45,
                                        start + kWheel - 10}));

    // Now is in the last word again, and the only event is one bucket
    // behind it: the circular scan must come back to this word.
    eq.scheduleIn(kWheel - 1, record);
    eq.run();
    EXPECT_EQ(fired.back(), start + 2 * kWheel - 11);
}

TEST(EventQueue, ManyEventsGrowThePoolTransparently)
{
    ActionQueue eq;
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
        eq.scheduleIn(1 + static_cast<Tick>(i) % (kWheel + kWheel / 4),
                      [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 10000);
}

namespace
{

using Firing = std::pair<std::uint64_t, Tick>; ///< (event id, now)

/**
 * A random engine program. Event ids count schedules in order, and what
 * an event schedules when it fires is a function of its id alone, so
 * the engine and the reference model below replay the same program as
 * long as they fire in the same order.
 */
struct Program
{
    std::uint64_t seed;
    std::uint64_t budget; ///< total events the program schedules

    static Tick
    delay(Rng &r)
    {
        switch (r.below(4)) {
          case 0:
            return 0; // same tick
          case 1:
            return r.below(64); // typical component latencies
          case 2:
            return kWheel - 2 + r.below(5); // around the wheel horizon
          default:
            return r.below(3 * kWheel + 1);
        }
    }

    std::vector<Tick>
    children(std::uint64_t id) const
    {
        Rng r(seed * 0x9e3779b97f4a7c15ULL + id);
        std::vector<Tick> delays(r.below(4));
        for (Tick &d : delays)
            d = delay(r);
        return delays;
    }
};

/** The engine under test running a Program. */
struct EngineRun
{
    const Program &prog;
    EventQueue eq;
    std::uint64_t nextId = 0;
    std::vector<Firing> fired;

    void
    schedule(Tick when)
    {
        eq.schedule(when, EventKind::CpuResume, 0, nextId++);
    }

    Tick
    run(Tick limit)
    {
        return eq.run(limit, [this](EventKind, const Message &m) {
            fire(m.addr);
        });
    }

    void
    fire(std::uint64_t id)
    {
        fired.emplace_back(id, eq.now());
        for (Tick d : prog.children(id)) {
            if (nextId < prog.budget)
                schedule(eq.now() + d); // nested schedule
        }
    }
};

/** Reference: a priority queue ordered by (tick, insertion counter). */
struct ReferenceRun
{
    const Program &prog;
    std::priority_queue<Firing, std::vector<Firing>,
                        std::greater<>> queue; ///< (when, id)
    Tick now = 0;
    std::uint64_t nextId = 0;
    std::vector<Firing> fired;

    void schedule(Tick when) { queue.emplace(when, nextId++); }

    Tick
    run(Tick limit)
    {
        while (!queue.empty()) {
            auto [when, id] = queue.top();
            if (when > limit) {
                now = limit;
                return now;
            }
            queue.pop();
            now = when;
            fired.emplace_back(id, now);
            for (Tick d : prog.children(id)) {
                if (nextId < prog.budget)
                    schedule(now + d);
            }
        }
        return now;
    }
};

} // namespace

TEST(EventQueue, MatchesAReferenceQueueOnRandomPrograms)
{
    for (std::uint64_t p = 0; p < 300; ++p) {
        Rng drive(p + 1);
        Program prog{p, 50 + drive.below(1000)};
        EngineRun engine{prog, {}, 0, {}};
        ReferenceRun ref{prog, {}, 0, 0, {}};
        while (engine.nextId < prog.budget || !engine.eq.empty()) {
            // Top-level schedules between run() calls; a drained queue
            // always gets at least one so the program makes progress.
            std::uint64_t n = drive.below(3) + (engine.eq.empty() ? 1 : 0);
            for (; n > 0 && engine.nextId < prog.budget; --n) {
                Tick when = engine.eq.now() + Program::delay(drive);
                engine.schedule(when);
                ref.schedule(when);
            }
            Tick limit = drive.chance(0.2)
                    ? kTickNever : engine.eq.now() + drive.below(2 * kWheel);
            Tick stopped = engine.run(limit);
            ASSERT_EQ(stopped, ref.run(limit)) << "program " << p;
            ASSERT_EQ(engine.eq.now(), ref.now) << "program " << p;
            ASSERT_EQ(engine.eq.empty(), ref.queue.empty())
                    << "program " << p;
            ASSERT_EQ(engine.fired, ref.fired) << "program " << p;
        }
    }
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    ActionQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "schedule in the past");
}
