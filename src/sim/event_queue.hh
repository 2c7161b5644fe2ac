/**
 * @file
 * Global discrete-event queue.
 *
 * The whole machine is driven by a single event queue: components
 * schedule events at absolute ticks, and ties are broken by insertion
 * order so that simulation is fully deterministic.
 *
 * The set of events is closed. An event is a one-byte EventKind plus a
 * Message payload; a message-path stage carries its message, and any
 * other event names its node in the payload's dst (and, where it needs
 * them, an address and a PC). The queue never runs code of its own:
 * run() hands each due event to the caller's dispatch function, and
 * Machine owns the one switch over the kinds.
 *
 * The engine is allocation-free in steady state:
 *
 *  - Events live in a preallocated, free-listed pool of 64-byte slots.
 *    There is no cancellation: every scheduled event fires exactly once.
 *  - Short-delay schedules — the overwhelmingly common case (cache,
 *    bus, mesh and CPU latencies are tens to hundreds of ticks) — go
 *    into a 4096-bucket time wheel. Its occupied buckets are tracked in
 *    64 bitmap words plus one summary word over them, so finding the
 *    next bucket is two count-trailing-zeros. Only schedules ≥ 4096
 *    ticks out touch the overflow binary heap.
 *  - run() pops and dispatches in one inlined loop: find the next
 *    bucket, unlink its head, copy out the event and free the slot.
 */

#ifndef PSIM_SIM_EVENT_QUEUE_HH
#define PSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "proto/message.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

/** What an event does when it fires; the payload's dst names the node. */
enum class EventKind : std::uint8_t
{
    CpuResume,     ///< resume the node's thread
    CpuFlcMiss,    ///< an FLC read miss on (addr, pc) enters the FLWB
    FlwbPump,      ///< the FLWB presents its head entry to the SLC
    SlcRead,       ///< the SLC tag access of a read of (addr, pc) ends
    SlcWrite,      ///< the SLC tag access of a write of (addr, pc) ends
    CpuReadDone,   ///< the SLC returns the data of addr to the processor
    MsgBusOut,     ///< the message has crossed its source node's bus
    MsgMeshArrive, ///< its tail flit has reached the destination node
    MsgDeliver,    ///< it has crossed the destination node's bus
    DirProcess,    ///< the home directory acts on the message
    DirReplay,     ///< the home directory replays a queued request
    SamplerTick,   ///< the interval sampler takes a snapshot
};

class EventQueue
{
  public:
    /** Ticks covered by the time wheel; farther schedules use the heap. */
    static constexpr std::uint32_t kWheelSize = 4096;

    EventQueue();
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a @p kind event carrying @p payload at absolute tick
     * @p when.
     * @pre when >= now()
     */
    void schedule(Tick when, EventKind kind, const Message &payload);

    /** Schedule a @p kind event for @p node, with an address and PC. */
    void
    schedule(Tick when, EventKind kind, NodeId node,
             Addr addr = kAddrInvalid, Pc pc = 0)
    {
        Message m;
        m.dst = node;
        m.addr = addr;
        m.pc = pc;
        schedule(when, kind, m);
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return _summary == 0 && _heap.empty();
    }

    /**
     * Run until the queue drains or @p limit ticks have been simulated,
     * calling `dispatch(EventKind, const Message &)` for each event in
     * (tick, insertion) order. The handler may schedule more events.
     * @return the tick at which execution stopped.
     */
    template <typename Dispatch>
    Tick
    run(Tick limit, Dispatch &&dispatch)
    {
        for (std::uint32_t slot; (slot = popDue(limit)) != kNil;) {
            Event &e = _pool[slot];
            psim_assert(e.when >= _now, "event queue went backwards");
            _now = e.when;
            // Copy the event out and free the slot before dispatching,
            // so the handler may schedule into it (or grow the pool
            // under it).
            const EventKind kind = e.kind;
            const Message payload = e.payload;
            e.next = _freeHead;
            _freeHead = slot;
            dispatch(kind, payload);
        }
        if (!empty())
            _now = limit;
        return _now;
    }

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
        Message payload;
        std::uint32_t next = kNil; ///< bucket chain or free list
        EventKind kind = EventKind::CpuResume;
    };
    static_assert(sizeof(Event) <= 64, "an event slot must fit 64 bytes");

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

    // The two helpers below are forced inline: without it GCC keeps
    // popDue() out of line, and run() pays a call per event.

    /** First occupied bucket at circular distance >= 0 from now. */
    [[gnu::always_inline]] std::uint32_t
    firstOccupiedBucket() const
    {
        // Scan circularly from now's bucket: the rest of now's word,
        // then the words after it, then wrap to the lowest occupied
        // bucket (which may sit in now's own word, below now's bit).
        std::uint32_t from = static_cast<std::uint32_t>(_now) & kWheelMask;
        std::uint32_t word = from >> 6;
        std::uint64_t bits = _occupied[word] & (~0ULL << (from & 63));
        if (!bits) {
            std::uint64_t later = _summary & (~1ULL << word);
            word = static_cast<std::uint32_t>(
                    std::countr_zero(later ? later : _summary));
            bits = _occupied[word];
        }
        return (word << 6) +
               static_cast<std::uint32_t>(std::countr_zero(bits));
    }

    /**
     * Unlink the earliest event from the wheel or the heap and return
     * its slot, or kNil when the queue is drained or that event lies
     * after @p limit. The slot is not freed.
     */
    [[gnu::always_inline]] std::uint32_t
    popDue(Tick limit)
    {
        if (_summary) {
            // The first occupied bucket from now's position holds the
            // minimal wheel tick, and its head the minimal wheel seq.
            std::uint32_t b = firstOccupiedBucket();
            std::uint32_t slot = _bucketHead[b];
            const Event &e = _pool[slot];
            if (_heap.empty() || !heapFirst(_heap.front(), e)) {
                if (e.when > limit)
                    return kNil;
                if (e.next != kNil) {
                    _bucketHead[b] = e.next;
                } else {
                    std::uint64_t &word = _occupied[b >> 6];
                    word &= ~(1ULL << (b & 63));
                    if (!word)
                        _summary &= ~(1ULL << (b >> 6));
                }
                return slot;
            }
        } else if (_heap.empty()) {
            return kNil;
        }
        if (_heap.front().when > limit)
            return kNil;
        std::uint32_t slot = _heap.front().slot;
        std::pop_heap(_heap.begin(), _heap.end());
        _heap.pop_back();
        return slot;
    }

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
