/**
 * @file
 * First-level cache (paper Section 2).
 *
 * On-chip, direct-mapped, write-through with no allocation on write
 * misses, blocking on read misses, and invalidatable from outside the
 * chip (the block-invalidation pin) so the SLC can maintain inclusion.
 * The FLC holds tags only; data lives in the functional backing store.
 */

#ifndef PSIM_MEM_FLC_HH
#define PSIM_MEM_FLC_HH

#include "mem/cache_array.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace psim
{

class Flc
{
  public:
    explicit Flc(const MachineConfig &cfg)
        : _cfg(cfg), _array(cfg.flcSize, 1, cfg.blockSize)
    {
    }

    /** Probe for a read. @return true on hit (updates stats). */
    bool
    probeRead(Addr addr, Tick now)
    {
        ++reads;
        CacheBlk *blk = _array.find(_cfg.blockAddr(addr));
        if (blk) {
            _array.touch(blk, now);
            return true;
        }
        ++readMisses;
        return false;
    }

    /**
     * Probe for a write. Write-through, no-allocate: the write always
     * continues to the FLWB; a hit merely keeps the cached copy in sync
     * (data itself is functional).
     */
    void
    probeWrite(Addr addr, Tick now)
    {
        ++writes;
        CacheBlk *blk = _array.find(_cfg.blockAddr(addr));
        if (blk)
            _array.touch(blk, now);
        else
            ++writeMisses;
    }

    /** Fill after an SLC read response (direct-mapped victim evicted). */
    void
    fill(Addr addr, Tick now)
    {
        Addr blk_addr = _cfg.blockAddr(addr);
        CacheBlk *frame = _array.findVictim(blk_addr);
        _array.fill(frame, blk_addr, CohState::Shared, now);
    }

    /** The block-invalidation pin (inclusion with the SLC). */
    void
    invalidate(Addr blk_addr)
    {
        if (CacheBlk *blk = _array.find(blk_addr)) {
            _array.invalidate(blk, blk_addr);
            ++invalidations;
        }
    }

    bool contains(Addr blk_addr) const { return _array.find(blk_addr); }

    const CacheArray &array() const { return _array; }

    stats::Scalar reads;
    stats::Scalar readMisses;
    stats::Scalar writes;
    stats::Scalar writeMisses;
    stats::Scalar invalidations;

    /** Register this cache's statistics into @p g. */
    void
    registerStats(stats::Group &g)
    {
        g.addScalar("reads", &reads, "read probes");
        g.addScalar("readMisses", &readMisses, "read misses");
        g.addScalar("writes", &writes, "write probes");
        g.addScalar("writeMisses", &writeMisses, "write misses");
        g.addScalar("invalidations", &invalidations,
                "inclusion invalidations from the SLC");
    }

  private:
    const MachineConfig &_cfg;
    CacheArray _array;
};

} // namespace psim

#endif // PSIM_MEM_FLC_HH
