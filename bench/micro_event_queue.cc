/**
 * @file
 * Microbenchmarks (google-benchmark) of the event engine: schedule,
 * cancel and drain throughput for the workloads the machine generates
 * (short-delay schedules dominating, occasional long delays, cancels).
 *
 * The pooled/time-wheel engine's speedup over the seed engine it
 * replaced is recorded in CHANGES.md (PR 1).
 */

#include <benchmark/benchmark.h>

#include "sim/event_queue.hh"

using namespace psim;

namespace
{

constexpr std::size_t kBatch = 8192;

/** Schedule a batch of short-delay events and drain it. */
void
BM_PureSchedule(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(1 + (i % 97), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

/** Schedule a batch, cancel every other event, drain the rest. */
void
BM_HalfCancel(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<EventQueue::EventId> ids;
    ids.reserve(kBatch);
    for (auto _ : state) {
        ids.clear();
        for (std::size_t i = 0; i < kBatch; ++i)
            ids.push_back(eq.scheduleIn(1 + (i % 97),
                                        [&fired] { ++fired; }));
        for (std::size_t i = 0; i < kBatch; i += 2)
            eq.cancel(ids[i]);
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

/** Steady-state ping: every fired event schedules its successor. */
void
BM_WheelHit(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        // All delays below the wheel horizon (256): the common case on
        // the machine's cache/bus/mesh paths.
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(1 + (i % 250), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

/** Long delays only: exercises the overflow heap path. */
void
BM_FarSchedule(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i)
            eq.scheduleIn(300 + 13 * (i % 251), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}

BENCHMARK(BM_PureSchedule);
BENCHMARK(BM_HalfCancel);
BENCHMARK(BM_WheelHit);
BENCHMARK(BM_FarSchedule);

} // namespace

BENCHMARK_MAIN();
