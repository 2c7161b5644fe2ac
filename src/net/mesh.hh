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

#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

class ChromeTracer;

class Mesh
{
  public:
    /** Inline-stored delivery callback (no heap on the message path). */
    using DeliverFn = EventQueue::Callback;

    Mesh(EventQueue &eq, const MachineConfig &cfg);

    /**
     * Inject a message of @p flits flits at node @p src destined for
     * node @p dst; @p deliver runs when the tail flit arrives.
     * @pre src != dst (local traffic stays on the node bus).
     */
    void send(NodeId src, NodeId dst, unsigned flits, DeliverFn deliver);

    /** Attach the audit layer (mesh message conservation). */
    void setAudit(audit::MachineAudit *a) { _audit = a; }

    /** Attach the chrome://tracing exporter (read-only observation). */
    void setChromeTracer(ChromeTracer *t) { _chrome = t; }

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


    EventQueue &_eq;
    const MachineConfig &_cfg;
    audit::MachineAudit *_audit = nullptr; ///< null when auditing is off
    ChromeTracer *_chrome = nullptr;       ///< null when tracing is off
    /** One Resource per (node, direction): N/E/S/W. */
    std::vector<Resource> _links;
};

} // namespace psim

#endif // PSIM_NET_MESH_HH
