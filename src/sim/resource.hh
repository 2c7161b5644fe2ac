/**
 * @file
 * A serially-reusable resource (bus, link, memory bank).
 *
 * Models contention with a single "free at" horizon: a claimant asking at
 * tick t for o ticks of occupancy is granted max(t, freeAt) and pushes the
 * horizon to grant + o. FIFO with respect to request order, which matches
 * the deterministic event ordering of the global queue. The resource
 * keeps no statistics; a user that reports occupancy or queueing (the
 * bus) accounts for them itself.
 */

#ifndef PSIM_SIM_RESOURCE_HH
#define PSIM_SIM_RESOURCE_HH

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
        return start;
    }

    Tick freeAt() const { return _freeAt; }

  private:
    Tick _freeAt = 0;
};

} // namespace psim

#endif // PSIM_SIM_RESOURCE_HH
