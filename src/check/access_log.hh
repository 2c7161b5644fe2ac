/**
 * @file
 * Committed-access observation for differential checking.
 *
 * The machine can stream every *committed* shared-memory access --
 * every functional store the moment it lands in the backing store and
 * every load value the moment the processor consumes it -- into a
 * CommitSink. The order of onAccess() calls is exactly the order in
 * which the backing store was touched, so a sequentially-consistent
 * reference model (check::Oracle) can replay the stream and re-derive
 * every load value independently.
 *
 * Recording is observability-grade: attaching a sink never changes
 * simulated behaviour, timing, or any aggregate statistic. The sink
 * also observes prefetch issues (trigger plus prefetched block), which
 * lets the oracle enforce the paper's no-prefetch-across-page-boundary
 * rule end to end for every scheme.
 */

#ifndef PSIM_CHECK_ACCESS_LOG_HH
#define PSIM_CHECK_ACCESS_LOG_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/types.hh"

namespace psim::check
{

/** One committed shared-memory access (value included). */
struct AccessRecord
{
    enum class Kind : std::uint8_t
    {
        Read,  ///< load value consumed by a processor
        Write, ///< store committed to the backing store
    };

    Tick tick = 0;            ///< tick of the functional access
    NodeId node = 0;          ///< processor that performed it
    Kind kind = Kind::Read;
    std::uint8_t len = 0;     ///< access size in bytes (<= 8)
    Addr addr = 0;
    std::uint8_t value[8]{};  ///< the bytes loaded or stored
};

/** One issued prefetch, with the demand access that triggered it. */
struct PrefetchIssueRecord
{
    Tick tick = 0;
    NodeId node = 0;
    Addr trigger = 0; ///< byte address of the triggering demand access
    Addr block = 0;   ///< block address the prefetch was issued for
};

/** Receives committed accesses and prefetch issues during a run. */
class CommitSink
{
  public:
    virtual ~CommitSink() = default;

    virtual void onAccess(const AccessRecord &rec) = 0;

    virtual void onPrefetchIssue(const PrefetchIssueRecord &rec)
    {
        (void)rec;
    }
};

/** The default sink: append everything to in-memory vectors. */
class AccessLog : public CommitSink
{
  public:
    void
    onAccess(const AccessRecord &rec) override
    {
        _accesses.push_back(rec);
    }

    void
    onPrefetchIssue(const PrefetchIssueRecord &rec) override
    {
        _prefetches.push_back(rec);
    }

    const std::vector<AccessRecord> &accesses() const { return _accesses; }

    const std::vector<PrefetchIssueRecord> &
    prefetchIssues() const
    {
        return _prefetches;
    }

    void
    clear()
    {
        _accesses.clear();
        _prefetches.clear();
    }

  private:
    std::vector<AccessRecord> _accesses;
    std::vector<PrefetchIssueRecord> _prefetches;
};

} // namespace psim::check

#endif // PSIM_CHECK_ACCESS_LOG_HH
