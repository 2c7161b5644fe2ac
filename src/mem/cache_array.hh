/**
 * @file
 * Generic cache tag/state array.
 *
 * Used both by the FLC (direct-mapped, valid bit only) and the SLC
 * (coherence state + prefetched bit). Supports an "infinite" mode, used
 * for the paper's default infinitely-large SLC, in which no replacements
 * ever occur.
 *
 * Lookups dominate the simulator's profile (every demand access and
 * every prefetch candidate probes the array), so the storage is laid
 * out for the probe path:
 *
 *  - Finite mode keeps a separate tag lane (one Addr per way) alongside
 *    the block-metadata frames. A set lookup scans only the densely
 *    packed tags -- one cache line covers 8 ways -- and touches a frame
 *    only on a hit. Invalid ways hold kAddrInvalid in the tag lane, so
 *    the scan needs no separate valid check.
 *
 *  - Infinite mode is an open-addressed, power-of-two hash table with
 *    linear probing instead of a node-based hash map: no pointer
 *    chasing, no per-entry allocation. Entries are never removed --
 *    invalidation clears the coherence state but keeps the key, so
 *    probe chains stay intact and a block's slot is stable until the
 *    table grows.
 */

#ifndef PSIM_MEM_CACHE_ARRAY_HH
#define PSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace psim
{

/** SLC coherence states (write-invalidate MSI at the second level). */
enum class CohState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

const char *toString(CohState s);

struct CacheBlk
{
    Addr addr = kAddrInvalid; ///< block-aligned address
    CohState state = CohState::Invalid;
    bool prefetched = false;  ///< the 1-bit prefetch tag of Section 3.3
    bool written = false;     ///< the local processor stored to this copy
    /**
     * The prefetch outcome for this block was already reported to the
     * prefetcher as useless because it stayed unreferenced too long
     * (adaptive-scheme feedback aging; see Slc::agePrefetches).
     */
    bool outcomeReported = false;
    Tick lastUse = 0;         ///< LRU timestamp

    bool valid() const { return state != CohState::Invalid; }
};

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity; 0 means infinite
     * @param assoc ways per set (ignored when infinite)
     * @param block_size bytes per block
     */
    CacheArray(unsigned size_bytes, unsigned assoc, unsigned block_size);

    bool infinite() const { return _infinite; }
    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Look up a block; nullptr on miss. Does not touch LRU state. */
    CacheBlk *find(Addr blk_addr);

    const CacheBlk *
    find(Addr blk_addr) const
    {
        return const_cast<CacheArray *>(this)->find(blk_addr);
    }

    /** Update the LRU timestamp of a resident block. */
    void touch(CacheBlk *blk, Tick now) { blk->lastUse = now; }

    /**
     * Pick the frame a new block for @p blk_addr would occupy. In
     * infinite mode this never evicts (the table grows instead; growth
     * invalidates previously returned CacheBlk pointers). Otherwise
     * returns the invalid or LRU way of the set; the caller must handle
     * the victim (the returned block still holds the victim's metadata).
     */
    CacheBlk *findVictim(Addr blk_addr);

    /**
     * Install @p blk_addr in @p frame (obtained from findVictim) with
     * @p state.
     */
    void
    fill(CacheBlk *frame, Addr blk_addr, CohState state, Tick now)
    {
        frame->addr = blk_addr;
        frame->state = state;
        frame->prefetched = false;
        frame->outcomeReported = false;
        frame->written = false;
        frame->lastUse = now;
        if (!_infinite)
            _tags[static_cast<std::size_t>(frame - _frames.data())] =
                    blk_addr;
    }

    /** Invalidate a resident block. */
    void
    invalidate(CacheBlk *blk)
    {
        blk->state = CohState::Invalid;
        blk->prefetched = false;
        if (!_infinite)
            _tags[static_cast<std::size_t>(blk - _frames.data())] =
                    kAddrInvalid;
    }

    /** Apply @p fn to every valid block (for invariant checks/stats). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const CacheBlk &blk : _infinite ? _table : _frames) {
            if (blk.valid())
                fn(blk);
        }
    }

    /** Number of currently valid blocks. */
    std::size_t numValid() const;

  private:
    std::size_t
    setIndex(Addr blk_addr) const
    {
        return static_cast<std::size_t>(
                (blk_addr >> _blockShift) & (_numSets - 1));
    }

    /**
     * Fibonacci hash: a single multiply whose high bits index the
     * table. The footprints the paper's workloads build are small
     * enough that the table stays cache-resident, so hash latency sits
     * directly on the probe's critical path -- a multi-round finalizer
     * (murmur3) measurably slows whole-application runs. The odd
     * multiplier is bijective, so power-of-two-strided block addresses
     * (column walks) still spread over the whole table.
     */
    std::uint64_t
    hashOf(Addr blk_addr) const
    {
        return (blk_addr * 0x9e3779b97f4a7c15ULL) >> _tableShift;
    }

    /** Double the infinite-mode table and rehash every occupied slot. */
    void grow();

    bool _infinite;
    unsigned _assoc;
    unsigned _blockShift;
    unsigned _numSets;

    /**
     * Finite storage (structure-of-arrays): the tag lane is scanned on
     * every probe; the frames hold the metadata touched only on a hit.
     * _tags[i] == _frames[i].addr when way i is valid, kAddrInvalid
     * otherwise.
     */
    std::vector<Addr> _tags;
    std::vector<CacheBlk> _frames;

    /**
     * Infinite storage: open-addressed table, capacity a power of two,
     * with kAddrInvalid marking an empty slot. The key lane is probed
     * separately from the metadata (the same structure-of-arrays split
     * as the finite tag lane): a probe touches only the dense 8-byte
     * keys, not the 24-byte frames. _tableTags[i] == _table[i].addr for
     * every occupied slot, including invalidated ones (keys are never
     * removed so probe chains stay intact).
     */
    std::vector<Addr> _tableTags;
    std::vector<CacheBlk> _table;
    std::size_t _tableUsed = 0;
    unsigned _tableShift = 0; ///< 64 - log2(_table.size())
};

// The probe paths are defined inline: they are leaves of the
// simulator's hottest loops (every demand access and every prefetch
// candidate lands here) and inlining them into the caller is worth
// more than any layout trick.

inline CacheBlk *
CacheArray::find(Addr blk_addr)
{
    if (_infinite) {
        const std::size_t mask = _table.size() - 1;
        const Addr *keys = _tableTags.data();
        std::size_t i = hashOf(blk_addr) & mask;
        while (keys[i] != kAddrInvalid) {
            if (keys[i] == blk_addr)
                return _table[i].valid() ? &_table[i] : nullptr;
            i = (i + 1) & mask;
        }
        return nullptr;
    }
    const std::size_t base = setIndex(blk_addr) * _assoc;
    const Addr *tags = _tags.data() + base;
    for (unsigned w = 0; w < _assoc; ++w) {
        if (tags[w] == blk_addr)
            return &_frames[base + w];
    }
    return nullptr;
}

inline CacheBlk *
CacheArray::findVictim(Addr blk_addr)
{
    if (_infinite) {
        // Grow before probing so the pointer we hand out survives the
        // insertion (keep the load factor at or below ~0.7).
        if ((_tableUsed + 1) * 10 > _table.size() * 7)
            grow();
        const std::size_t mask = _table.size() - 1;
        const Addr *keys = _tableTags.data();
        std::size_t i = hashOf(blk_addr) & mask;
        while (keys[i] != kAddrInvalid) {
            if (keys[i] == blk_addr)
                return &_table[i];
            i = (i + 1) & mask;
        }
        _tableTags[i] = blk_addr;
        _table[i].addr = blk_addr;
        ++_tableUsed;
        return &_table[i];
    }
    // The victim scan reads the frames anyway (LRU timestamps), so the
    // tag lane would only add a second stream here; scan frames alone.
    CacheBlk *set = &_frames[setIndex(blk_addr) * _assoc];
    CacheBlk *victim = &set[0];
    for (unsigned w = 0; w < _assoc; ++w) {
        if (!set[w].valid())
            return &set[w];
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    return victim;
}

} // namespace psim

#endif // PSIM_MEM_CACHE_ARRAY_HH
