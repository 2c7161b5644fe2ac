/**
 * @file
 * Reference Prediction Table for I-detection stride prefetching
 * (Section 3.2, Figures 3 and 4; after Baer and Chen).
 *
 * A direct-mapped, PC-indexed table. An entry is allocated the first
 * time a load instruction misses in the SLC. The second time the same
 * instruction appears a stride is calculated, the entry enters `init`
 * and prefetching begins. The four-state control automaton of Figure 4
 * then governs prefetching:
 *
 *     init      --correct-->   steady
 *     init      --incorrect--> transient   (stride recalculated)
 *     steady    --correct-->   steady
 *     steady    --incorrect--> init        (stride kept)
 *     transient --correct-->   steady
 *     transient --incorrect--> noPref      (stride recalculated)
 *     noPref    --correct-->   transient
 *     noPref    --incorrect--> noPref      (stride recalculated)
 *
 * Prefetches are issued in every state except `noPref` (and before the
 * first stride is known).
 */

#ifndef PSIM_CORE_RPT_HH
#define PSIM_CORE_RPT_HH

#include <array>
#include <cstdint>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

enum class RptState : std::uint8_t
{
    New,       ///< allocated, stride not yet known
    Init,
    Steady,
    Transient,
    NoPref,
};

const char *toString(RptState s);

struct RptEntry
{
    bool valid = false;
    Pc pc = 0;                 ///< tag
    Addr prevAddr = 0;         ///< last data address from this load
    std::int64_t stride = 0;   ///< current stride in bytes
    RptState state = RptState::New;
};

class Rpt
{
  public:
    /** Result of presenting one reference to the table. */
    struct Outcome
    {
        bool entryHit = false;     ///< the PC matched a valid entry
        bool prefetchable = false; ///< post-update state allows prefetching
        std::int64_t stride = 0;   ///< stride to prefetch with
        RptState state = RptState::New; ///< post-update state
    };

    /**
     * Present a read request (PC, data address) to the table.
     *
     * @param pc load instruction address
     * @param addr data address
     * @param allocate_on_miss allocate a new entry when the PC is absent
     *        (true only for SLC misses, per the paper)
     */
    Outcome observe(Pc pc, Addr addr, bool allocate_on_miss);

    /** Peek at the entry a PC maps to; nullptr if absent/mismatched. */
    const RptEntry *lookup(Pc pc) const;

    /** Hand the table's statistics to @p v. */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("rptAllocations", "RPT entries allocated", allocations);
        v.scalar("rptConflicts", "RPT entries evicted by PC conflicts",
                conflicts);
        v.scalar("rptCorrect", "correct stride predictions", correct);
        v.scalar("rptIncorrect", "incorrect stride predictions", incorrect);
    }

    /** Entries allocated over the run. */
    stats::Scalar allocations;
    /** Entries evicted by PC conflicts. */
    stats::Scalar conflicts;
    /** Correct stride predictions. */
    stats::Scalar correct;
    /** Incorrect stride predictions. */
    stats::Scalar incorrect;

  private:
    std::size_t indexOf(Pc pc) const;

    /** Paper: 256 entries, direct-mapped. */
    std::array<RptEntry, PrefetchConfig::rptEntries> _table{};
};

} // namespace psim

#endif // PSIM_CORE_RPT_HH
