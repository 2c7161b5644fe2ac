/**
 * @file
 * Unit tests for the coroutine Task type: suspension, resumption,
 * nesting via continuations, completion flags.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "sim/logging.hh"
#include "sys/task.hh"

using namespace psim;

namespace
{

/** A manual awaitable that parks the coroutine handle for the test. */
struct ManualAwait
{
    std::coroutine_handle<> *slot;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        *slot = h;
    }

    void await_resume() const noexcept {}
};

} // namespace

TEST(Task, StartsSuspended)
{
    bool ran = false;
    auto make = [&]() -> Task {
        ran = true;
        co_return;
    };
    Task t = make();
    EXPECT_FALSE(ran) << "initial_suspend must be suspend_always";
    EXPECT_FALSE(t.done());
    t.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(t.done());
}

TEST(Task, SuspendsAtAwaitAndResumes)
{
    std::coroutine_handle<> parked;
    int phase = 0;
    auto make = [&]() -> Task {
        phase = 1;
        co_await ManualAwait{&parked};
        phase = 2;
    };
    Task t = make();
    t.resume();
    EXPECT_EQ(phase, 1);
    EXPECT_FALSE(t.done());
    ASSERT_TRUE(parked);
    parked.resume();
    EXPECT_EQ(phase, 2);
    EXPECT_TRUE(t.done());
}

TEST(Task, NestedTaskRunsToCompletionThenResumesCaller)
{
    std::vector<int> trace;
    auto inner = [&]() -> Task {
        trace.push_back(2);
        co_return;
    };
    auto outer = [&]() -> Task {
        trace.push_back(1);
        co_await inner();
        trace.push_back(3);
    };
    Task t = outer();
    t.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(t.done());
}

TEST(Task, NestedSuspensionPropagatesToRoot)
{
    std::coroutine_handle<> parked;
    std::vector<int> trace;
    auto inner = [&]() -> Task {
        trace.push_back(2);
        co_await ManualAwait{&parked};
        trace.push_back(3);
    };
    auto outer = [&]() -> Task {
        trace.push_back(1);
        co_await inner();
        trace.push_back(4);
    };
    Task t = outer();
    t.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2}));
    EXPECT_FALSE(t.done());
    // Resuming the innermost handle drives the whole chain to the end.
    parked.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(t.done());
}

TEST(Task, DeeplyNestedChains)
{
    std::coroutine_handle<> parked;
    int depth_reached = 0;
    std::function<Task(int)> rec = [&](int depth) -> Task {
        if (depth == 0) {
            depth_reached = 100;
            co_await ManualAwait{&parked};
            co_return;
        }
        co_await rec(depth - 1);
        ++depth_reached;
    };
    Task t = rec(20);
    t.resume();
    EXPECT_EQ(depth_reached, 100);
    parked.resume();
    EXPECT_EQ(depth_reached, 120);
    EXPECT_TRUE(t.done());
}

TEST(Task, MoveTransfersOwnership)
{
    auto make = [&]() -> Task { co_return; };
    Task a = make();
    Task b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    b.resume();
    EXPECT_TRUE(b.done());
}

TEST(Task, DefaultConstructedIsDone)
{
    Task t;
    EXPECT_FALSE(t.valid());
    EXPECT_TRUE(t.done());
    t.resume(); // must be a no-op, not a crash
}

TEST(Task, LoopWithManyAwaits)
{
    std::coroutine_handle<> parked;
    int count = 0;
    auto make = [&]() -> Task {
        for (int i = 0; i < 100; ++i) {
            co_await ManualAwait{&parked};
            ++count;
        }
    };
    Task t = make();
    t.resume();
    for (int i = 0; i < 100; ++i)
        parked.resume();
    EXPECT_EQ(count, 100);
    EXPECT_TRUE(t.done());
}

TEST(Task, APanicInANestedTaskReachesTheRootResume)
{
    // Under a PanicThrows, a panic inside a nested coroutine leaves the
    // root's resume() as a Panic, and both frames still destroy cleanly.
    PanicThrows panics_throw;
    bool resumed_after = false;
    auto inner = []() -> Task {
        psim_panic("inner %d", 3);
        co_return;
    };
    auto outer = [&]() -> Task {
        co_await inner();
        resumed_after = true;
    };
    Task t = outer();
    EXPECT_THROW(t.resume(), Panic);
    EXPECT_FALSE(resumed_after);
}
