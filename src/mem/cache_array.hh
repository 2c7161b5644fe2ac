/**
 * @file
 * Generic cache tag/state array.
 *
 * Used both by the FLC (direct-mapped, valid bit only) and the SLC
 * (coherence state + prefetched bit). Supports an "infinite" mode, used
 * for the paper's default infinitely-large SLC, in which no replacements
 * ever occur.
 *
 * A CacheBlk is the four bytes of per-block state the protocol reads
 * and writes. The block's address and its LRU stamp live in lanes of
 * their own, because every resident block costs host memory (an
 * infinite SLC on a 64-node machine holds half a million of them) and
 * every probe scans addresses, not state:
 *
 *  - Finite mode keeps three lanes indexed by way: the tag lane (one
 *    Addr per way), the frame lane (one CacheBlk per way) and, only
 *    when assoc > 1, the stamp lane (one Tick per way: the last fill or
 *    touch). A set lookup scans only the densely packed tags -- one
 *    cache line covers 8 ways -- and touches a frame only on a hit.
 *    Invalid ways hold kAddrInvalid in the tag lane, so the scan needs
 *    no separate valid check. A direct-mapped array never chooses a
 *    victim by age, so it has no stamp lane and touch() is a no-op.
 *
 *  - Infinite mode stores the blocks in a BlockTable keyed by block
 *    address: its key lane plays the tag lane's part, and a slot costs
 *    12 bytes (the key and a CacheBlk). No victim is ever chosen, so
 *    there are no stamps. Invalidation erases the entry, so the table
 *    holds the resident blocks only. Erasing may move other entries
 *    (BlockTable's reference rule): no CacheBlk pointer may be held
 *    across an invalidate() or a findVictim() of another block.
 *
 * A caller that holds a CacheBlk pointer holds the address it looked
 * the block up by; addrOf() recovers it for a victim from findVictim().
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

/** One block's state; its address and LRU stamp live in CacheArray. */
struct CacheBlk
{
    CohState state = CohState::Invalid;
    bool prefetched = false;  ///< the 1-bit prefetch tag of Section 3.3
    bool written = false;     ///< the local processor stored to this copy
    /**
     * The prefetch outcome for this block was already reported to the
     * prefetcher as useless because it stayed unreferenced too long
     * (adaptive-scheme feedback aging; see Slc::agePrefetches).
     */
    bool outcomeReported = false;

    bool valid() const { return state != CohState::Invalid; }
};

static_assert(sizeof(CacheBlk) == 4,
        "CacheBlk holds only per-block state: addresses and LRU stamps "
        "live in CacheArray's lanes");

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

    /**
     * Update the LRU stamp of a resident block. Only a set-associative
     * array keeps stamps; elsewhere this does nothing.
     */
    void
    touch(const CacheBlk *blk, Tick now)
    {
        if (!_stamps.empty())
            _stamps[wayOf(blk)] = now;
    }

    /**
     * Pick the frame a new block for @p blk_addr would occupy: the
     * block's own frame if it is resident. In infinite mode this never
     * evicts: it inserts an invalid entry for an absent @p blk_addr,
     * which may move other entries. Otherwise returns the invalid or
     * LRU way of the set; the caller must handle the victim (the
     * returned frame still holds the victim's state, and addrOf() gives
     * its address).
     */
    CacheBlk *findVictim(Addr blk_addr);

    /**
     * The address of the block in @p frame, which must be valid or come
     * from findVictim.
     */
    Addr
    addrOf(const CacheBlk *frame) const
    {
        return _infinite ? _table.keyOf(frame) : _tags[wayOf(frame)];
    }

    /**
     * Install @p blk_addr in @p frame (obtained from findVictim) with
     * @p state.
     */
    void
    fill(CacheBlk *frame, Addr blk_addr, CohState state, Tick now)
    {
        *frame = CacheBlk{};
        frame->state = state;
        if (_infinite)
            return;
        const std::size_t way = wayOf(frame);
        _tags[way] = blk_addr;
        if (!_stamps.empty())
            _stamps[way] = now;
    }

    /**
     * Invalidate the resident block @p blk, whose address is
     * @p blk_addr. In infinite mode this erases it, which may move
     * other entries (see the file comment).
     */
    void
    invalidate(CacheBlk *blk, Addr blk_addr)
    {
        if (_infinite) {
            _table.erase(blk_addr);
            return;
        }
        blk->state = CohState::Invalid;
        blk->prefetched = false;
        _tags[wayOf(blk)] = kAddrInvalid;
    }

    /**
     * Apply @p fn(address, block) to every valid block (for invariant
     * checks/stats), in no specified order.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (_infinite) {
            _table.forEach([&fn](Addr addr, const CacheBlk &blk) {
                if (blk.valid())
                    fn(addr, blk);
            });
            return;
        }
        for (std::size_t i = 0; i < _frames.size(); ++i) {
            if (_frames[i].valid())
                fn(_tags[i], _frames[i]);
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

    /** Index of finite frame @p frame in every lane. */
    std::size_t
    wayOf(const CacheBlk *frame) const
    {
        return static_cast<std::size_t>(frame - _frames.data());
    }

    bool _infinite;
    unsigned _assoc;
    unsigned _blockShift;
    unsigned _numSets;

    /**
     * Finite storage (structure-of-arrays, one entry per way): the tag
     * lane is scanned on every probe; the frames hold the state touched
     * only on a hit. _tags[i] is way i's block address when it is
     * valid, kAddrInvalid otherwise. _stamps[i] is way i's last fill or
     * touch; the lane is empty unless assoc > 1.
     */
    std::vector<Addr> _tags;
    std::vector<CacheBlk> _frames;
    std::vector<Tick> _stamps;

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
    if (_infinite)
        return &_table[blk_addr];
    const std::size_t base = setIndex(blk_addr) * _assoc;
    if (_stamps.empty()) // direct-mapped: the set's one way
        return &_frames[base];
    if (CacheBlk *own = find(blk_addr))
        return own;
    std::size_t victim = base;
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (!_frames[i].valid())
            return &_frames[i];
        if (_stamps[i] < _stamps[victim])
            victim = i;
    }
    return &_frames[victim];
}

} // namespace psim

#endif // PSIM_MEM_CACHE_ARRAY_HH
