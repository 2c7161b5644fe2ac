/**
 * @file
 * A serially-reusable resource (bus, link, memory bank).
 *
 * Models contention with a single "free at" horizon: a claimant asking at
 * tick t for o ticks of occupancy is granted max(t, freeAt) and pushes the
 * horizon to grant + o. FIFO with respect to request order, which matches
 * the deterministic event ordering of the global queue.
 */

#ifndef PSIM_SIM_RESOURCE_HH
#define PSIM_SIM_RESOURCE_HH

#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

class Resource
{
  public:
    /**
     * Claim the resource at @p now for @p occupancy ticks.
     * @return the tick at which the claimant actually starts.
     */
    Tick
    claim(Tick now, Tick occupancy)
    {
        Tick start = now > _freeAt ? now : _freeAt;
        _freeAt = start + occupancy;
        busyTicks += static_cast<double>(occupancy);
        waitTicks += static_cast<double>(start - now);
        ++claims;
        return start;
    }

    Tick freeAt() const { return _freeAt; }

    /** Total ticks the resource was occupied. */
    stats::Scalar busyTicks;
    /** Total ticks claimants spent queued. */
    stats::Scalar waitTicks;
    /** Number of claims. */
    stats::Scalar claims;

  private:
    Tick _freeAt = 0;
};

} // namespace psim

#endif // PSIM_SIM_RESOURCE_HH
