/**
 * @file
 * Perfetto / chrome://tracing exporter.
 *
 * Records the events the paper's evaluation reasons about -- demand
 * read misses (miss detection to fill), prefetch lifecycles (issue to
 * fill as a duration, terminal fate as an instant event named by the
 * audit layer's fate taxonomy, sim/audit.hh) and mesh message transits
 * -- in the Trace Event JSON format both Perfetto and chrome://tracing
 * load directly. Each node renders as one process (pid = node id) with
 * "demand", "prefetch" and tracks; the mesh renders as pid 1000 with
 * one track per source node. Timestamps are simulation ticks.
 *
 * Recording is windowed by tick range so long runs stay loadable, and
 * strictly read-only: enabling it never changes simulated behaviour.
 */

#ifndef PSIM_TRACE_CHROME_TRACE_HH
#define PSIM_TRACE_CHROME_TRACE_HH

#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/audit.hh"
#include "sim/types.hh"

namespace psim
{

class ChromeTracer
{
  public:
    /** Record only events starting inside [start, end]. */
    explicit ChromeTracer(Tick start = 0, Tick end = kTickNever);

    ChromeTracer(const ChromeTracer &) = delete;
    ChromeTracer &operator=(const ChromeTracer &) = delete;

    bool
    inWindow(Tick t) const
    {
        return t >= _start && t <= _end;
    }

    // ---- demand read misses ----
    void demandMissStart(NodeId node, Addr blk, Tick t);
    void demandMissEnd(NodeId node, Addr blk, Tick t);

    // ---- prefetch lifecycles (audit fate taxonomy) ----
    void prefetchIssue(NodeId node, Addr blk, Tick t);
    void prefetchFill(NodeId node, Addr blk, Tick t);
    void prefetchFate(NodeId node, Addr blk, audit::Fate fate, Tick t);

    // ---- mesh message transits ----
    void meshMessage(NodeId src, NodeId dst, unsigned flits, Tick inject,
                     Tick arrival);

    std::size_t eventCount() const { return _events.size(); }

    /** Write the complete Trace Event JSON document. */
    void write(std::ostream &os) const;

  private:
    struct TraceEvent
    {
        std::string name;
        const char *cat;
        char ph;        ///< 'X' complete, 'i' instant
        Tick ts;
        Tick dur;       ///< valid for 'X'
        unsigned pid;
        unsigned tid;
        std::string args; ///< preformatted JSON object, may be empty
    };

    /** Open interval start ticks, keyed by (node, block address). */
    using OpenMap = std::unordered_map<std::uint64_t, Tick>;

    static std::uint64_t
    key(NodeId node, Addr blk)
    {
        return (static_cast<std::uint64_t>(node) << 48) ^ blk;
    }

    void push(TraceEvent e);

    Tick _start;
    Tick _end;
    OpenMap _openMisses;
    OpenMap _openPrefetches;
    std::vector<TraceEvent> _events;
};

} // namespace psim

#endif // PSIM_TRACE_CHROME_TRACE_HH
