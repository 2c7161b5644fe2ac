/**
 * @file
 * Global discrete-event queue.
 *
 * The whole machine is driven by a single event queue: components
 * schedule callbacks at absolute ticks, and ties are broken by insertion
 * order so that simulation is fully deterministic.
 *
 * The engine is allocation-free in steady state:
 *
 *  - Events live in a preallocated, free-listed pool. There is no
 *    cancellation: every scheduled event fires exactly once.
 *  - Callbacks are stored inline (InlineCallback) with no heap
 *    fallback and must be trivially copyable; an oversized or
 *    non-trivial capture list is a compile error.
 *  - Short-delay schedules — the overwhelmingly common case (cache,
 *    bus, mesh and CPU latencies are tens to hundreds of ticks) — go
 *    into a 4096-bucket time wheel. Its occupied buckets are tracked in
 *    64 bitmap words plus one summary word over them, so finding the
 *    next bucket is two count-trailing-zeros. Only schedules ≥ 4096
 *    ticks out touch the overflow binary heap.
 *  - run() pops and fires in one loop: find the next bucket, unlink its
 *    head, free the slot, copy out and invoke the callback.
 */

#ifndef PSIM_SIM_EVENT_QUEUE_HH
#define PSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

class EventQueue
{
  public:
    /**
     * Inline storage must hold the largest hot-path capture list:
     * [this, Message, bool] on the protocol send path is 56 bytes.
     */
    static constexpr std::size_t kCallbackCapacity = 64;

    using Callback = InlineCallback<kCallbackCapacity>;

    /** Ticks covered by the time wheel; farther schedules use the heap. */
    static constexpr std::uint32_t kWheelSize = 4096;

    EventQueue();
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb at absolute tick @p when.
     * @pre when >= now()
     */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delta ticks from now. */
    void scheduleIn(Tick delta, Callback cb) { schedule(_now + delta, cb); }

    /** True when no events remain. */
    bool
    empty() const
    {
        return _summary == 0 && _heap.empty();
    }

    /**
     * Run until the queue drains or @p limit ticks have been simulated.
     * @return the tick at which execution stopped.
     */
    Tick run(Tick limit = kTickNever);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kWheelMask = kWheelSize - 1;
    static constexpr std::uint32_t kWheelWords = kWheelSize / 64;
    static_assert(kWheelWords == 64,
            "one summary word must cover the occupancy bitmap");

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;
        std::uint32_t next = kNil; ///< bucket chain or free list
    };

    /** Overflow heap entry for schedules beyond the wheel horizon. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator<(const HeapEntry &o) const
        {
            // std::push_heap builds a max-heap; invert for earliest-first.
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** True when heap entry @p h fires before wheel event @p e. */
    static bool
    heapFirst(const HeapEntry &h, const Event &e)
    {
        return h.when < e.when || (h.when == e.when && h.seq < e.seq);
    }

    void growPool();

    // The three helpers below are forced inline: without it GCC keeps
    // popDue() out of line, and run() pays a call per event.

    /** First occupied bucket at circular distance >= 0 from now. */
    [[gnu::always_inline]] std::uint32_t firstOccupiedBucket() const;

    /**
     * Unlink the earliest event from the wheel or the heap and return
     * its slot, or kNil when the queue is drained or that event lies
     * after @p limit. The slot is not freed.
     */
    [[gnu::always_inline]] std::uint32_t popDue(Tick limit);

    /** Free @p slot, advance time to its tick and invoke its callback. */
    [[gnu::always_inline]] void fire(std::uint32_t slot);

    Tick _now = 0;
    std::uint64_t _nextSeq = 1;

    std::vector<Event> _pool;
    std::uint32_t _freeHead = kNil;

    // Two-level front: time wheel for [now, now + kWheelSize) ... A
    // bucket's head and tail are meaningful only while its occupancy
    // bit is set, so construction clears just the bitmap.
    std::array<std::uint32_t, kWheelSize> _bucketHead;
    std::array<std::uint32_t, kWheelSize> _bucketTail;
    std::array<std::uint64_t, kWheelWords> _occupied;
    std::uint64_t _summary = 0; ///< bit w set iff _occupied[w] != 0

    // ... and a binary min-heap for everything farther out.
    std::vector<HeapEntry> _heap;
};

} // namespace psim

#endif // PSIM_SIM_EVENT_QUEUE_HH
