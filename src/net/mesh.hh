/**
 * @file
 * 2-D wormhole-routed mesh interconnect.
 *
 * Dimension-ordered (X then Y) routing. Each unidirectional link is a
 * serially-reusable resource at flit granularity: the head flit waits for
 * every link on the path in order (each adding the node fall-through
 * latency), and the worm then occupies each link for length-many network
 * cycles. This models both the pipelined wormhole latency
 * (hops * fall-through + flits) and link contention, which the paper
 * states is "accurately modelled in all parts of the system".
 */

#ifndef PSIM_NET_MESH_HH
#define PSIM_NET_MESH_HH

#include <vector>

#include "sim/config.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

class Mesh
{
  public:
    explicit Mesh(const MachineConfig &cfg);

    /**
     * Inject a message of @p flits flits at node @p src at tick @p now,
     * destined for node @p dst.
     * @return the tick at which its tail flit arrives.
     * @pre src != dst (local traffic stays on the node bus).
     */
    Tick send(Tick now, NodeId src, NodeId dst, unsigned flits);

    /** Register the mesh's statistics into @p g. */
    void
    registerStats(stats::Group &g)
    {
        g.addScalar("messages", &messages, "messages injected");
        g.addScalar("flits", &flitsInjected, "flits injected");
        g.addAverage("latency", &msgLatency, "in-network message latency");
    }

    /** Hop count of the X-Y route between two nodes. */
    unsigned hops(NodeId src, NodeId dst) const;

    /** Uncontended latency of a @p flits-flit message over @p nhops. */
    Tick
    baseLatency(unsigned nhops, unsigned flits) const
    {
        return static_cast<Tick>(nhops) * _cfg.fallThrough * _cfg.netCycle +
               static_cast<Tick>(flits) * _cfg.netCycle;
    }

    /** Total flits injected (traffic metric). */
    stats::Scalar flitsInjected;
    /** Total messages injected. */
    stats::Scalar messages;
    /** Accumulated in-network latency. */
    stats::Average msgLatency;

  private:
    struct Coord
    {
        int x;
        int y;
    };

    Coord coordOf(NodeId n) const;
    NodeId nodeOf(int x, int y) const;

    const MachineConfig &_cfg;
    /** One Resource per (node, direction): N/E/S/W. */
    std::vector<Resource> _links;
};

} // namespace psim

#endif // PSIM_NET_MESH_HH
