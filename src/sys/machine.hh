/**
 * @file
 * The full 16-node CC-NUMA machine (paper Sections 2 and 4).
 *
 * Owns the global event queue, the functional backing store, the mesh,
 * and the nodes; routes protocol messages across node buses and the
 * network; and aggregates the metrics the paper's evaluation reports.
 */

#ifndef PSIM_SYS_MACHINE_HH
#define PSIM_SYS_MACHINE_HH

#include <limits>
#include <memory>
#include <ostream>
#include <vector>

#include "check/access_log.hh"
#include "core/characterizer.hh"
#include "mem/backing_store.hh"
#include "net/mesh.hh"
#include "proto/message.hh"
#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"
#include "sys/node.hh"
#include "sys/task.hh"

namespace psim
{

class ChromeTracer;

namespace stats
{
class Sampler;
}

/** The headline numbers of one simulation run (Figure 6 inputs). */
struct RunMetrics
{
    Tick execTicks = 0;        ///< parallel-section execution time
    double reads = 0;          ///< loads issued by all processors
    double writes = 0;
    double slcReads = 0;       ///< read requests presented to the SLCs
    double readMisses = 0;     ///< the paper's "number of read misses"
    double readStall = 0;      ///< the paper's "read stall time" (ticks)
    double missesCold = 0;
    double missesCoherence = 0;
    double missesReplacement = 0;
    double pfIssued = 0;
    double pfUseful = 0;
    double flits = 0;          ///< network traffic
    double busTransactions = 0;

    /**
     * Useful / issued prefetches. NaN (not 1.0) when none were issued:
     * a run without prefetches has no efficiency, and reporting a
     * perfect score made baseline rows indistinguishable from schemes
     * whose every prefetch was useful. Renderers print "--" for NaN.
     */
    double
    prefetchEfficiency() const
    {
        return pfIssued > 0
                       ? pfUseful / pfIssued
                       : std::numeric_limits<double>::quiet_NaN();
    }
};

class Machine
{
  public:
    explicit Machine(MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    EventQueue &eq() { return _eq; }

    const MachineConfig &cfg() const { return _cfg; }
    BackingStore &store() { return _store; }
    Mesh &mesh() { return _mesh; }
    Node &node(NodeId id) { return *_nodes.at(id); }
    const Node &node(NodeId id) const { return *_nodes.at(id); }
    unsigned numProcs() const { return _cfg.numProcs; }

    /** The invariant-audit layer, or nullptr when auditing is off. */
    audit::MachineAudit *auditor() { return _audit.get(); }

    /**
     * Route a message from its source component: across the source
     * node's bus, then (for remote destinations) through the mesh and
     * the destination node's bus, and finally to the target component.
     */
    void send(const Message &m);

    /** Attach the simulated thread for one processor. */
    void bindProgram(NodeId id, Task t);

    /**
     * Attach a Table-2/3 stride characterizer to node 0's demand
     * read-miss stream, the node the paper's Section 5.1 tables
     * report. Call before run().
     */
    void enableCharacterizer();

    /** Node 0's characterizer; null unless enableCharacterizer() ran. */
    StrideCharacterizer *characterizer() { return _char.get(); }

    /**
     * Stream every SLC-presented request of every node into @p writer
     * (which must outlive the run). Call before run().
     */
    void enableTracing(TraceWriter &writer);

    /**
     * Snapshot selected per-node scalars (read misses, prefetches
     * issued/useful, SLWB/FLWB occupancy) and mesh flits every
     * @p interval ticks; the series lands in the JSON stats dump (and
     * dumps as CSV via sampler()). Read-only observation: aggregate
     * statistics are byte-identical with sampling on or off. Call
     * before run().
     */
    void enableSampling(Tick interval);

    /** The interval sampler, or nullptr when sampling is off. */
    stats::Sampler *sampler() { return _sampler.get(); }
    const stats::Sampler *sampler() const { return _sampler.get(); }

    /**
     * Record demand-miss / prefetch-lifecycle / mesh-transit events in
     * chrome://tracing form, windowed to ticks [start, end]. Read-only
     * observation. Call before run().
     */
    void enableChromeTrace(Tick start = 0, Tick end = kTickNever);

    /** The chrome trace recorder, or nullptr when tracing is off. */
    ChromeTracer *chromeTracer() { return _chrome.get(); }
    const ChromeTracer *chromeTracer() const { return _chrome.get(); }

    /**
     * Stream every committed shared-memory access (and every issued
     * prefetch) of the coming run into @p log, in execution order, for
     * differential checking (check/oracle.hh). The producers are the
     * ctx.hh value-commit points and the Slc's prefetch-issue site.
     * Observability-grade, read-only: recording never changes simulated
     * behaviour, timing, or any aggregate statistic. Call before run();
     * @p log must outlive it.
     */
    void enableCommitRecording(check::AccessLog &log);

    /** The commit log, or nullptr when recording is off. */
    check::AccessLog *commitSink() const { return _commitLog; }

    /**
     * Run the machine until all threads finish and the queue drains, or
     * until tick @p limit. The first call starts every bound thread; a
     * later call continues where the previous one stopped.
     * @return final tick.
     */
    Tick run(Tick limit = kTickNever);

    bool allFinished() const;

    /** Aggregate the paper's metrics over all nodes. */
    RunMetrics metrics() const;

    /** Every component's statistics group, in the order they were added. */
    const stats::Registry &registry() const { return _registry; }

    /** Dump every statistics group (classic aligned text form). */
    void dumpStats(std::ostream &os) const;

    /**
     * Dump every statistics group as the schema'd JSON document
     * ("psim-stats-v1"), with the sampler's time series appended as a
     * top-level "samples" member when sampling is enabled.
     */
    void dumpStatsJson(std::ostream &os) const;

    /**
     * Verify global coherence invariants (call when quiescent): at most
     * one Modified copy per block, directory state consistent with the
     * caches, FLC contents included in the SLC.
     */
    void checkCoherenceInvariants() const;

  private:
    /** Act on one event popped from the queue. */
    void fire(EventKind kind, const Message &m);

    MachineConfig _cfg;
    EventQueue _eq;
    BackingStore _store;
    /** Created before the nodes so they can wire into it. */
    std::unique_ptr<audit::MachineAudit> _audit;
    Mesh _mesh;
    std::vector<std::unique_ptr<Node>> _nodes;
    std::unique_ptr<StrideCharacterizer> _char;
    /** Built in the constructor, after the nodes exist. */
    stats::Registry _registry;
    std::unique_ptr<stats::Sampler> _sampler;
    std::unique_ptr<ChromeTracer> _chrome;
    check::AccessLog *_commitLog = nullptr;
    bool _ran = false;
};

} // namespace psim

#endif // PSIM_SYS_MACHINE_HH
