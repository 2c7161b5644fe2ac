/**
 * @file
 * Generic cache tag/state array.
 *
 * Used both by the FLC (direct-mapped, valid bit only) and the SLC
 * (coherence state + prefetched bit). Supports an "infinite" mode, used
 * for the paper's default infinitely-large SLC, in which no replacements
 * ever occur. A finite array is direct-mapped: the paper's FLC and its
 * only finite SLC (Table 3's 16 KB) both are.
 *
 * A CacheBlk is the one byte of per-block state the protocol reads and
 * writes. The block's address lives elsewhere, because every resident
 * block costs host memory (an infinite SLC on a 64-node machine holds
 * hundreds of thousands of them) and every probe compares addresses,
 * not state:
 *
 *  - Finite mode keeps two lanes indexed by set: the tag lane (one Addr
 *    per set) and the frame lane (one CacheBlk per set). A lookup is one
 *    tag compare and touches a frame only on a hit. Invalid sets hold
 *    kAddrInvalid in the tag lane, so the compare needs no separate
 *    valid check. The victim for a block is always its set's frame.
 *
 *  - Infinite mode stores sectors of kSectorBlocks consecutive blocks
 *    in a BlockTable keyed by sector address (the block address with
 *    its low log2(kSectorBlocks * block size) bits cleared). A slot is
 *    the 8-byte key and the sector's eight CacheBlks: 16 bytes for up
 *    to eight resident blocks, and the neighbours a sequential
 *    prefetcher asks about share their block's slot. A lookup is one
 *    probe and an index. No victim is ever chosen: findVictim returns
 *    the block's own frame. Invalidation clears the block and erases
 *    its sector once all eight blocks are invalid, so the table holds
 *    the sectors of resident blocks only. Erasing may move other
 *    entries (BlockTable's reference rule): no CacheBlk pointer may be
 *    held across an invalidate() or a findVictim() of another block.
 *
 * A caller that holds a CacheBlk pointer holds the address it looked
 * the block up by; a finite array's addrOf() recovers it for a victim
 * from findVictim().
 */

#ifndef PSIM_MEM_CACHE_ARRAY_HH
#define PSIM_MEM_CACHE_ARRAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/block_table.hh"
#include "sim/logging.hh"
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

/** One block's state; its address lives in CacheArray. */
struct CacheBlk
{
    CohState state : 2 = CohState::Invalid;
    bool prefetched : 1 = false; ///< the 1-bit prefetch tag of Section 3.3
    bool written : 1 = false;    ///< the local processor stored to this copy

    bool valid() const { return state != CohState::Invalid; }
};

static_assert(sizeof(CacheBlk) == 1,
        "CacheBlk holds only per-block state, packed in one byte: "
        "addresses live in CacheArray");

class CacheArray
{
  public:
    /** Blocks per infinite-mode sector (one BlockTable slot). */
    static constexpr unsigned kSectorBlocks = 8;

    /**
     * @param size_bytes total capacity; 0 means infinite
     * @param assoc ways per set; must be 1 (direct-mapped)
     * @param block_size bytes per block
     */
    CacheArray(unsigned size_bytes, unsigned assoc, unsigned block_size);

    bool infinite() const { return _infinite; }
    unsigned numSets() const { return _numSets; }

    /** Look up a block; nullptr on miss. */
    CacheBlk *find(Addr blk_addr);

    const CacheBlk *
    find(Addr blk_addr) const
    {
        return const_cast<CacheArray *>(this)->find(blk_addr);
    }

    /**
     * Pick the frame a new block for @p blk_addr would occupy: the
     * block's own frame if it is resident. In infinite mode this is
     * always the block's own frame and never evicts: it inserts the
     * block's sector if absent, which may move other entries. Otherwise
     * returns the set's one frame; the caller must handle the victim
     * (the returned frame still holds the victim's state, and addrOf()
     * gives its address).
     */
    CacheBlk *findVictim(Addr blk_addr);

    /**
     * The address of the block in finite frame @p frame, which must be
     * valid or come from findVictim. An infinite array's frame from
     * findVictim is always the block's own.
     */
    Addr
    addrOf(const CacheBlk *frame) const
    {
        psim_assert(!_infinite, "addrOf needs a finite array");
        return _tags[setOf(frame)];
    }

    /**
     * Install @p blk_addr in @p frame (obtained from findVictim) with
     * @p state. The trailing tick is unused; bench/perf's replay still
     * passes one.
     */
    void
    fill(CacheBlk *frame, Addr blk_addr, CohState state, Tick = 0)
    {
        *frame = CacheBlk{};
        frame->state = state;
        if (!_infinite)
            _tags[setOf(frame)] = blk_addr;
    }

    /**
     * Invalidate the resident block @p blk, whose address is
     * @p blk_addr. In infinite mode this erases the block's sector once
     * all its blocks are invalid, which may move other entries (see the
     * file comment).
     */
    void
    invalidate(CacheBlk *blk, Addr blk_addr)
    {
        *blk = CacheBlk{};
        if (!_infinite) {
            _tags[setOf(blk)] = kAddrInvalid;
            return;
        }
        const CacheBlk *first = blk - blockIn(blk_addr);
        for (unsigned i = 0; i < kSectorBlocks; ++i) {
            if (first[i].valid())
                return;
        }
        _table.erase(sectorOf(blk_addr));
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
            _table.forEach([this, &fn](Addr sector, const Sector &blks) {
                for (unsigned i = 0; i < kSectorBlocks; ++i) {
                    if (blks[i].valid())
                        fn(sector + (Addr{i} << _blockShift), blks[i]);
                }
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
    using Sector = std::array<CacheBlk, kSectorBlocks>;

    Addr
    sectorOf(Addr blk_addr) const
    {
        return blk_addr & ~((Addr{kSectorBlocks} << _blockShift) - 1);
    }

    /** Index of @p blk_addr's block within its sector. */
    unsigned
    blockIn(Addr blk_addr) const
    {
        return static_cast<unsigned>(blk_addr >> _blockShift) &
               (kSectorBlocks - 1);
    }

    std::size_t
    setIndex(Addr blk_addr) const
    {
        return static_cast<std::size_t>(
                (blk_addr >> _blockShift) & (_numSets - 1));
    }

    /** Index of finite frame @p frame in both lanes. */
    std::size_t
    setOf(const CacheBlk *frame) const
    {
        return static_cast<std::size_t>(frame - _frames.data());
    }

    bool _infinite;
    unsigned _blockShift;
    unsigned _numSets;

    /**
     * Finite storage (structure-of-arrays, one entry per set): the tag
     * lane is read on every probe; the frames hold the state touched
     * only on a hit. _tags[i] is set i's block address when it is
     * valid, kAddrInvalid otherwise.
     */
    std::vector<Addr> _tags;
    std::vector<CacheBlk> _frames;

    /** Infinite storage: the resident blocks' sectors, keyed by
     *  sector address. */
    BlockTable<Sector> _table;
};

// The probe paths are defined inline: they are leaves of the
// simulator's hottest loops (every demand access and every prefetch
// candidate lands here) and inlining them into the caller is worth
// more than any layout trick.

inline CacheBlk *
CacheArray::find(Addr blk_addr)
{
    if (_infinite) {
        Sector *sector = _table.find(sectorOf(blk_addr));
        if (!sector)
            return nullptr;
        CacheBlk *blk = &(*sector)[blockIn(blk_addr)];
        return blk->valid() ? blk : nullptr;
    }
    const std::size_t set = setIndex(blk_addr);
    return _tags[set] == blk_addr ? &_frames[set] : nullptr;
}

inline CacheBlk *
CacheArray::findVictim(Addr blk_addr)
{
    if (_infinite)
        return &_table[sectorOf(blk_addr)][blockIn(blk_addr)];
    return &_frames[setIndex(blk_addr)];
}

} // namespace psim

#endif // PSIM_MEM_CACHE_ARRAY_HH
