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
 *  - Infinite mode stores the blocks in a BlockTable keyed by block
 *    address, whose dense key lane plays the tag lane's part.
 *    Invalidation erases the entry, so the table holds the resident
 *    blocks only. Erasing may move other entries (BlockTable's
 *    reference rule): no CacheBlk pointer may be held across an
 *    invalidate() or a findVictim() of another block.
 */

#ifndef PSIM_MEM_CACHE_ARRAY_HH
#define PSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/block_table.hh"
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
     * infinite mode this never evicts: it inserts an invalid entry for
     * @p blk_addr, which may move other entries. Otherwise
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

    /**
     * Invalidate a resident block. In infinite mode this erases it,
     * which may move other entries (see the file comment).
     */
    void
    invalidate(CacheBlk *blk)
    {
        if (_infinite) {
            _table.erase(blk->addr);
            return;
        }
        blk->state = CohState::Invalid;
        blk->prefetched = false;
        _tags[static_cast<std::size_t>(blk - _frames.data())] =
                kAddrInvalid;
    }

    /**
     * Apply @p fn to every valid block (for invariant checks/stats), in
     * no specified order.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (_infinite) {
            _table.forEach([&fn](Addr, const CacheBlk &blk) {
                if (blk.valid())
                    fn(blk);
            });
            return;
        }
        for (const CacheBlk &blk : _frames) {
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

    /** Infinite storage: the resident blocks, keyed by address. */
    BlockTable<CacheBlk> _table;
};

// The probe paths are defined inline: they are leaves of the
// simulator's hottest loops (every demand access and every prefetch
// candidate lands here) and inlining them into the caller is worth
// more than any layout trick.

inline CacheBlk *
CacheArray::find(Addr blk_addr)
{
    if (_infinite) {
        // An entry is invalid only between findVictim and fill.
        CacheBlk *blk = _table.find(blk_addr);
        return blk && blk->valid() ? blk : nullptr;
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
        CacheBlk &blk = _table[blk_addr];
        blk.addr = blk_addr;
        return &blk;
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
