/**
 * @file
 * Microbenchmarks (google-benchmark) of the cache tag/state array:
 * lookup, fill and evict throughput for the probe patterns the machine
 * generates (demand hits dominating, prefetch-candidate misses, fill
 * churn in a finite SLC, and the infinite-SLC fill-then-find path).
 *
 * The speedup of the SoA tag lane and the open-addressed infinite table
 * over the seed's AoS array is recorded in CHANGES.md (PR 5).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "mem/cache_array.hh"

using namespace psim;

namespace
{

// The paper's finite-SLC configuration: 64 KiB, 4-way, 32 B blocks.
constexpr unsigned kSlcBytes = 64 * 1024;
constexpr unsigned kAssoc = 4;
constexpr unsigned kBlock = 32;
constexpr std::size_t kProbes = 8192;

/** Fill the array, then probe resident blocks (the demand-hit path). */
void
BM_LookupHit(benchmark::State &state)
{
    CacheArray arr(kSlcBytes, kAssoc, kBlock);
    std::vector<Addr> addrs;
    for (std::size_t i = 0; i < kSlcBytes / kBlock; ++i)
        addrs.push_back(static_cast<Addr>(i) * kBlock);
    for (Addr a : addrs)
        arr.fill(arr.findVictim(a), a, CohState::Shared, 0);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kProbes; ++i) {
            // Stride through the resident set with a co-prime step so
            // successive probes land in different sets.
            Addr a = addrs[(i * 97) % addrs.size()];
            if (arr.find(a))
                ++hits;
        }
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kProbes));
}

/** Probe non-resident blocks (the prefetch-candidate filter path). */
void
BM_LookupMiss(benchmark::State &state)
{
    CacheArray arr(kSlcBytes, kAssoc, kBlock);
    for (std::size_t i = 0; i < kSlcBytes / kBlock; ++i)
        arr.fill(arr.findVictim(static_cast<Addr>(i) * kBlock),
                 static_cast<Addr>(i) * kBlock, CohState::Shared, 0);
    std::uint64_t misses = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kProbes; ++i) {
            Addr a = (static_cast<Addr>(1) << 30) +
                     static_cast<Addr>(i) * kBlock;
            if (!arr.find(a))
                ++misses;
        }
    }
    benchmark::DoNotOptimize(misses);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kProbes));
}

/** Fill a working set 4x the capacity: the evict/refill churn path. */
void
BM_FillEvict(benchmark::State &state)
{
    CacheArray arr(kSlcBytes, kAssoc, kBlock);
    Tick now = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kProbes; ++i) {
            Addr a = static_cast<Addr>((i * 131) % (4 * kSlcBytes / kBlock))
                     * kBlock;
            CacheBlk *frame = arr.findVictim(a);
            if (frame->valid() && frame->addr != a)
                arr.invalidate(frame);
            arr.fill(frame, a, CohState::Modified, ++now);
        }
    }
    benchmark::DoNotOptimize(now);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kProbes));
}

/** Infinite mode: grow a large resident set from empty (fills only). */
void
BM_InfiniteFill(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        CacheArray arr(0, 1, kBlock);
        for (std::size_t i = 0; i < kProbes; ++i) {
            Addr a = static_cast<Addr>(i) * kBlock;
            arr.fill(arr.findVictim(a), a, CohState::Shared, 0);
        }
        sink += reinterpret_cast<std::uintptr_t>(arr.find(0));
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kProbes));
}

/**
 * Infinite mode: probe an established resident set -- the steady state
 * of the paper's infinite SLC, where every demand access and prefetch
 * candidate lands after the working set is resident.
 */
void
BM_InfiniteFind(benchmark::State &state)
{
    CacheArray arr(0, 1, kBlock);
    for (std::size_t i = 0; i < kProbes; ++i) {
        Addr a = static_cast<Addr>(i) * kBlock;
        arr.fill(arr.findVictim(a), a, CohState::Shared, 0);
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kProbes; ++i) {
            // Scattered probe order (golden-ratio hash): the resident
            // set is probed by interleaved demand streams and coherence
            // traffic, not by one neatly strided walk.
            Addr a = static_cast<Addr>((i * 2654435761u) % kProbes)
                     * kBlock;
            if (arr.find(a))
                ++hits;
        }
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kProbes));
}

BENCHMARK(BM_LookupHit);
BENCHMARK(BM_LookupMiss);
BENCHMARK(BM_FillEvict);
BENCHMARK(BM_InfiniteFill);
BENCHMARK(BM_InfiniteFind);

} // namespace

BENCHMARK_MAIN();
