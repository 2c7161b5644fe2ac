/**
 * @file
 * Multi-stride RPT prefetching (post-paper; after Blom et al.,
 * arXiv:2412.16001).
 *
 * The paper's I-detection keeps exactly one stride per PC, so a load
 * that alternates between a handful of strides (a column sweep with a
 * row fix-up, a frontier scan with irregular gaps) thrashes the RPT's
 * automaton and prefetches almost nothing. This table instead keeps up
 * to `PrefetchConfig::mstrideWays` concurrent (stride, confidence)
 * pairs per PC: every observed delta either reinforces the way holding
 * it or competes for a zero-confidence slot, and all ways at or above
 * `PrefetchConfig::mstrideConf` prefetch on every trigger.
 * Single-stride streams degenerate to the classic behaviour with one
 * hot way.
 */

#ifndef PSIM_CORE_MSTRIDE_HH
#define PSIM_CORE_MSTRIDE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/prefetcher.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

/** PC-indexed, direct-mapped table of per-PC stride ways. */
class MultiStrideTable
{
  public:
    static constexpr unsigned kWays = PrefetchConfig::mstrideWays;
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
        std::array<Way, kWays> ways{};
    };

    /** Strides confident enough to prefetch after one observation. */
    struct Outcome
    {
        bool entryHit = false;
        unsigned count = 0;
        std::array<std::int64_t, kWays> strides{};
    };

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
            for (Way &w : e.ways) {
                if (w.conf > 0 && w.stride == delta) {
                    match = &w;
                    break;
                }
                if (!free_way && w.conf == 0)
                    free_way = &w;
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
                for (Way &w : e.ways)
                    --w.conf;
            }
        }

        for (const Way &w : e.ways) {
            if (w.conf >= PrefetchConfig::mstrideConf)
                oc.strides[oc.count++] = w.stride;
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
    visitStats(stats::Visitor &v) const
    {
        v.scalar("msAllocations", "multi-stride entries allocated",
                allocations);
        v.scalar("msConflicts", "multi-stride entries evicted by PC conflicts",
                conflicts);
        v.scalar("msWayEvictions", "aging events with every way occupied",
                wayEvictions);
        v.scalar("msMultiActive",
                "observations with two or more confident strides",
                multiActive);
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

    /** Indexed like the RPT: one entry per PC slot, direct-mapped. */
    std::array<Entry, PrefetchConfig::rptEntries> _table{};
};

class MultiStridePrefetcher : public Prefetcher
{
  public:
    MultiStridePrefetcher(unsigned degree, unsigned block_size)
        : _degree(degree), _blockSize(block_size)
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
    visitStats(stats::Visitor &v) const override
    {
        Prefetcher::visitStats(v);
        _table.visitStats(v);
    }

  private:
    MultiStrideTable _table;
    unsigned _degree;
    unsigned _blockSize;
};

} // namespace psim

#endif // PSIM_CORE_MSTRIDE_HH
