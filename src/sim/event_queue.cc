#include "sim/event_queue.hh"

#include <algorithm>

namespace psim
{

namespace
{

/**
 * Slots in the first pool. The pool doubles on demand, so a machine
 * pays only for the slots its peak of pending events needs.
 */
constexpr std::size_t kInitialPool = 64;

} // namespace

EventQueue::EventQueue()
{
    _occupied.fill(0);
    growPool();
}

void
EventQueue::growPool()
{
    std::size_t old = _pool.size();
    std::size_t grown = old ? old * 2 : kInitialPool;
    psim_assert(grown < kNil, "event pool exceeded 2^32 slots");
    _pool.resize(grown);
    // Thread the new slots onto the free list in increasing order.
    for (std::size_t s = grown; s-- > old;) {
        _pool[s].next = _freeHead;
        _freeHead = static_cast<std::uint32_t>(s);
    }
}

void
EventQueue::schedule(Tick when, EventKind kind, const Message &payload)
{
    psim_assert(when >= _now, "schedule in the past: when=%llu now=%llu",
            (unsigned long long)when, (unsigned long long)_now);
    if (_freeHead == kNil)
        growPool();
    std::uint32_t slot = _freeHead;
    Event &e = _pool[slot];
    _freeHead = e.next;
    e.when = when;
    e.seq = _nextSeq++;
    e.payload = payload;
    e.kind = kind;

    if (when - _now < kWheelSize) {
        // Every wheel event lies in [now, now + kWheelSize), so a
        // bucket holds one tick and its FIFO chain is seq order.
        e.next = kNil;
        std::uint32_t b = static_cast<std::uint32_t>(when) & kWheelMask;
        std::uint64_t bit = 1ULL << (b & 63);
        if (_occupied[b >> 6] & bit) {
            _pool[_bucketTail[b]].next = slot;
        } else {
            _bucketHead[b] = slot;
            _occupied[b >> 6] |= bit;
            _summary |= 1ULL << (b >> 6);
        }
        _bucketTail[b] = slot;
    } else {
        _heap.push_back(HeapEntry{when, e.seq, slot});
        std::push_heap(_heap.begin(), _heap.end());
    }
}

} // namespace psim
