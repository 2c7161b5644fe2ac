/**
 * @file
 * Multi-stride RPT prefetching (post-paper; after Blom et al.,
 * arXiv:2412.16001).
 *
 * The paper's I-detection keeps exactly one stride per PC, so a load
 * that alternates between a handful of strides (a column sweep with a
 * row fix-up, a frontier scan with irregular gaps) thrashes the RPT's
 * automaton and prefetches almost nothing. This table instead keeps up
 * to `ways` concurrent (stride, confidence) pairs per PC: every
 * observed delta either reinforces the way holding it or competes for a
 * zero-confidence slot, and all ways above a confidence threshold
 * prefetch on every trigger. Single-stride streams degenerate to the
 * classic behaviour with one hot way.
 */

#ifndef PSIM_CORE_MSTRIDE_HH
#define PSIM_CORE_MSTRIDE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/prefetcher.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

/** PC-indexed, direct-mapped table of per-PC stride ways. */
class MultiStrideTable
{
  public:
    static constexpr unsigned kMaxWays = 8;
    static constexpr unsigned kConfCap = 3;

    struct Way
    {
        std::int64_t stride = 0;
        unsigned conf = 0;
    };

    struct Entry
    {
        bool valid = false;
        Pc pc = 0;
        Addr prevAddr = 0;
        std::array<Way, kMaxWays> ways{};
    };

    /** Strides confident enough to prefetch after one observation. */
    struct Outcome
    {
        bool entryHit = false;
        unsigned count = 0;
        std::array<std::int64_t, kMaxWays> strides{};
    };

    MultiStrideTable(unsigned entries, unsigned ways, unsigned conf)
        : _ways(ways < kMaxWays ? ways : kMaxWays),
          _conf(conf),
          _table(entries ? entries : 1)
    {
    }

    /**
     * Present one (PC, address) reference. Entries are allocated only
     * on SLC misses, like the classic RPT.
     */
    Outcome
    observe(Pc pc, Addr addr, bool allocate_on_miss)
    {
        Entry &e = _table[indexOf(pc)];
        Outcome oc;

        if (!e.valid || e.pc != pc) {
            if (!allocate_on_miss)
                return oc;
            if (e.valid)
                ++conflicts;
            else
                ++allocations;
            e = Entry{};
            e.valid = true;
            e.pc = pc;
            e.prevAddr = addr;
            return oc;
        }

        oc.entryHit = true;
        std::int64_t delta =
                static_cast<std::int64_t>(addr) -
                static_cast<std::int64_t>(e.prevAddr);
        e.prevAddr = addr;

        if (delta != 0) {
            Way *match = nullptr;
            Way *free_way = nullptr;
            for (unsigned w = 0; w < _ways; ++w) {
                if (e.ways[w].conf > 0 && e.ways[w].stride == delta) {
                    match = &e.ways[w];
                    break;
                }
                if (!free_way && e.ways[w].conf == 0)
                    free_way = &e.ways[w];
            }
            if (match) {
                if (match->conf < kConfCap)
                    ++match->conf;
            } else if (free_way) {
                free_way->stride = delta;
                free_way->conf = 1;
            } else {
                // All ways are held by other strides: age every way so
                // a recurring newcomer eventually claims a slot and a
                // one-off burst cannot evict an established stride.
                ++wayEvictions;
                for (unsigned w = 0; w < _ways; ++w)
                    --e.ways[w].conf;
            }
        }

        for (unsigned w = 0; w < _ways; ++w) {
            if (e.ways[w].conf >= _conf)
                oc.strides[oc.count++] = e.ways[w].stride;
        }
        if (oc.count > 1)
            ++multiActive;
        return oc;
    }

    /** Peek at the entry a PC maps to; nullptr if absent/mismatched. */
    const Entry *
    lookup(Pc pc) const
    {
        const Entry &e = _table[indexOf(pc)];
        return e.valid && e.pc == pc ? &e : nullptr;
    }

    void
    registerStats(stats::Group &g)
    {
        g.addScalar("msAllocations", &allocations,
                "multi-stride entries allocated");
        g.addScalar("msConflicts", &conflicts,
                "multi-stride entries evicted by PC conflicts");
        g.addScalar("msWayEvictions", &wayEvictions,
                "aging events with every way occupied");
        g.addScalar("msMultiActive", &multiActive,
                "observations with two or more confident strides");
    }

    stats::Scalar allocations;
    stats::Scalar conflicts;
    stats::Scalar wayEvictions;
    stats::Scalar multiActive;

  private:
    std::size_t
    indexOf(Pc pc) const
    {
        return (static_cast<std::size_t>(pc) >> 2) % _table.size();
    }

    unsigned _ways;
    unsigned _conf;
    std::vector<Entry> _table;
};

class MultiStridePrefetcher : public Prefetcher
{
  public:
    MultiStridePrefetcher(unsigned entries, unsigned ways, unsigned conf,
                          unsigned degree, unsigned block_size)
        : _table(entries, ways, conf),
          _degree(degree),
          _blockSize(block_size)
    {
    }

    void
    observeRead(const ReadObservation &obs, std::vector<Addr> &out) override
    {
        MultiStrideTable::Outcome oc =
                _table.observe(obs.pc, obs.addr, !obs.hit);
        if (oc.count == 0)
            return;

        // Same block-granularity prefetching phase as I-detection: each
        // confident stride runs its own Figure 5 sequence.
        if (!obs.hit) {
            for (unsigned w = 0; w < oc.count; ++w) {
                std::int64_t sblk = blockStride(oc.strides[w],
                                                _blockSize);
                for (unsigned k = 1; k <= _degree; ++k)
                    pushCandidate(obs.addr, sblk * k, out);
            }
        } else if (obs.taggedHit) {
            for (unsigned w = 0; w < oc.count; ++w) {
                std::int64_t sblk = blockStride(oc.strides[w],
                                                _blockSize);
                pushCandidate(obs.addr,
                              sblk * static_cast<int>(_degree), out);
            }
        }
    }

    void
    registerStats(stats::Group &g) override
    {
        Prefetcher::registerStats(g);
        _table.registerStats(g);
    }

  private:
    MultiStrideTable _table;
    unsigned _degree;
    unsigned _blockSize;
};

} // namespace psim

#endif // PSIM_CORE_MSTRIDE_HH
