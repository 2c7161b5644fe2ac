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
    if (_shardOrder) {
        e.owner = _ctxOwner;
        e.seq = (static_cast<std::uint64_t>(_ctxOwner) << 48) |
                _ownerCtr[_ctxOwner]++;
    } else {
        e.owner = 0;
        e.seq = _nextSeq++;
    }
    e.cb = cb;

    if (_stagingActive && when == _stagingTick) {
        // runWindow is draining this very tick: a same-tick child must
        // enter the staging heap directly, where its seq places it
        // relative to the entries still pending (a wheel bucket would
        // only be looked at again next tick).
        _staging.push_back(StagedEntry{e.seq, slot});
        std::push_heap(_staging.begin(), _staging.end());
    } else if (when - _now < kWheelSize) {
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
    _ctxOwner = e.owner;
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

Tick
EventQueue::nextWhen() const
{
    Tick t = kTickNever;
    if (_summary)
        t = _pool[_bucketHead[firstOccupiedBucket()]].when;
    if (!_heap.empty())
        t = std::min(t, _heap.front().when);
    return t;
}

Tick
EventQueue::runWindow(Tick end)
{
    psim_assert(_shardOrder, "runWindow requires shard ordering");
    for (std::uint32_t slot;
         end > 0 && (slot = popDue(end - 1)) != kNil;) {
        Tick t = _pool[slot].when;

        // Pull every event at tick t out of the wheel/heap into the
        // staging heap. Bucket chains are FIFO by insertion, which in
        // sharded mode is not seq order (a window-boundary delivery for
        // a high-numbered owner may have been inserted before an
        // in-window event of a low-numbered one); the heap restores the
        // (owner, counter) order that makes firing shard-count
        // invariant.
        _stagingTick = t;
        _stagingActive = true;
        do {
            _staging.push_back(StagedEntry{_pool[slot].seq, slot});
            std::push_heap(_staging.begin(), _staging.end());
        } while ((slot = popDue(t)) != kNil);

        // Drain in seq order. Callbacks may schedule further events at
        // this same tick; schedule() feeds those straight into the
        // staging heap, and per-owner counters are monotone, so a child
        // always sorts after its (already fired) parent.
        while (!_staging.empty()) {
            std::pop_heap(_staging.begin(), _staging.end());
            std::uint32_t staged = _staging.back().slot;
            _staging.pop_back();
            fire(staged);
        }
        _stagingActive = false;
    }
    return _now;
}

} // namespace psim
