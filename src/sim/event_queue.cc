#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

namespace psim
{

namespace
{

constexpr std::size_t kInitialPool = 1024;

} // namespace

EventQueue::EventQueue()
{
    _occupied.fill(0);
    _pool.reserve(kInitialPool);
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
EventQueue::schedule(Tick when, Callback cb)
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
    e.cb = cb;

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

inline std::uint32_t
EventQueue::firstOccupiedBucket() const
{
    // Scan circularly from now's bucket: the rest of now's word, then
    // the words after it, then wrap to the lowest occupied bucket
    // (which may sit in now's own word, below now's bit).
    std::uint32_t from = static_cast<std::uint32_t>(_now) & kWheelMask;
    std::uint32_t word = from >> 6;
    std::uint64_t bits = _occupied[word] & (~0ULL << (from & 63));
    if (!bits) {
        std::uint64_t later = _summary & (~1ULL << word);
        word = static_cast<std::uint32_t>(
                std::countr_zero(later ? later : _summary));
        bits = _occupied[word];
    }
    return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
}

inline std::uint32_t
EventQueue::popDue(Tick limit)
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

inline void
EventQueue::fire(std::uint32_t slot)
{
    Event &e = _pool[slot];
    psim_assert(e.when >= _now, "event queue went backwards");
    _now = e.when;
    // Copy the callback out and free the slot before invoking, so the
    // callback may schedule into it (or grow the pool under it).
    Callback cb = e.cb;
    e.next = _freeHead;
    _freeHead = slot;
    cb();
}

Tick
EventQueue::run(Tick limit)
{
    for (std::uint32_t slot; (slot = popDue(limit)) != kNil;)
        fire(slot);
    if (!empty())
        _now = limit;
    return _now;
}

} // namespace psim
