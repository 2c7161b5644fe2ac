#include "trace/chrome_trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace psim
{

namespace
{

/** Mesh events get their own "process" row in the viewer. */
constexpr unsigned kMeshPid = 1000;

/** Per-node track ids. */
constexpr unsigned kTidDemand = 0;
constexpr unsigned kTidPrefetch = 1;

std::string
addrArg(Addr blk)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "{\"addr\":\"0x%" PRIx64 "\"}",
                  static_cast<std::uint64_t>(blk));
    return buf;
}

} // namespace

ChromeTracer::ChromeTracer(Tick start, Tick end) : _start(start), _end(end)
{
}

void
ChromeTracer::push(TraceEvent e)
{
    _events.push_back(std::move(e));
}

void
ChromeTracer::enableStaging(unsigned num_nodes)
{
    psim_assert(_events.empty() && _openMisses.empty(),
            "staging must enable before any event is recorded");
    _lanes = std::vector<Lane>(num_nodes);
}

void
ChromeTracer::stage(StagedOp::Kind kind, NodeId node, Addr blk, Tick t,
                    audit::Fate fate)
{
    _lanes[node].ops.push_back(StagedOp{kind, fate, node, blk, t});
}

void
ChromeTracer::drainStaged(Tick window_end)
{
    // Canonical order: (tick, node, per-node append index). Within one
    // node, appends happen in that node's deterministic event order; at
    // equal ticks the sharded tie-break fires events node-major -- so
    // this merge reproduces exactly the call order a --shards 1 run
    // (or the serial engine at the same boundaries) would have made.
    struct Ref
    {
        Tick tick;
        NodeId node;
        std::uint32_t idx;
    };
    std::vector<Ref> refs;
    for (NodeId n = 0; n < _lanes.size(); ++n) {
        const auto &ops = _lanes[n].ops;
        for (std::uint32_t i = 0; i < ops.size(); ++i) {
            psim_assert(ops[i].t < window_end,
                    "staged chrome op beyond its window");
            refs.push_back(Ref{ops[i].t, n, i});
        }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        if (a.tick != b.tick)
            return a.tick < b.tick;
        if (a.node != b.node)
            return a.node < b.node;
        return a.idx < b.idx;
    });
    for (const Ref &r : refs) {
        const StagedOp &op = _lanes[r.node].ops[r.idx];
        switch (op.kind) {
          case StagedOp::Kind::MissStart:
            applyMissStart(op.node, op.blk, op.t);
            break;
          case StagedOp::Kind::MissEnd:
            applyMissEnd(op.node, op.blk, op.t);
            break;
          case StagedOp::Kind::PfIssue:
            applyPfIssue(op.node, op.blk, op.t);
            break;
          case StagedOp::Kind::PfFill:
            applyPfFill(op.node, op.blk, op.t);
            break;
          case StagedOp::Kind::PfFate:
            applyPfFate(op.node, op.blk, op.fate, op.t);
            break;
        }
    }
    for (Lane &lane : _lanes)
        lane.ops.clear();
}

void
ChromeTracer::demandMissStart(NodeId node, Addr blk, Tick t)
{
    if (staging()) {
        stage(StagedOp::Kind::MissStart, node, blk, t);
        return;
    }
    applyMissStart(node, blk, t);
}

void
ChromeTracer::demandMissEnd(NodeId node, Addr blk, Tick t)
{
    if (staging()) {
        stage(StagedOp::Kind::MissEnd, node, blk, t);
        return;
    }
    applyMissEnd(node, blk, t);
}

void
ChromeTracer::prefetchIssue(NodeId node, Addr blk, Tick t)
{
    if (staging()) {
        stage(StagedOp::Kind::PfIssue, node, blk, t);
        return;
    }
    applyPfIssue(node, blk, t);
}

void
ChromeTracer::prefetchFill(NodeId node, Addr blk, Tick t)
{
    if (staging()) {
        stage(StagedOp::Kind::PfFill, node, blk, t);
        return;
    }
    applyPfFill(node, blk, t);
}

void
ChromeTracer::prefetchFate(NodeId node, Addr blk, audit::Fate fate, Tick t)
{
    if (staging()) {
        stage(StagedOp::Kind::PfFate, node, blk, t, fate);
        return;
    }
    applyPfFate(node, blk, fate, t);
}

void
ChromeTracer::applyMissStart(NodeId node, Addr blk, Tick t)
{
    _openMisses[key(node, blk)] = t;
}

void
ChromeTracer::applyMissEnd(NodeId node, Addr blk, Tick t)
{
    auto it = _openMisses.find(key(node, blk));
    if (it == _openMisses.end())
        return;
    Tick begin = it->second;
    _openMisses.erase(it);
    if (!inWindow(begin))
        return;
    push(TraceEvent{"read miss", "demand", 'X', begin, t - begin, node,
                    kTidDemand, addrArg(blk)});
}

void
ChromeTracer::applyPfIssue(NodeId node, Addr blk, Tick t)
{
    _openPrefetches[key(node, blk)] = t;
}

void
ChromeTracer::applyPfFill(NodeId node, Addr blk, Tick t)
{
    auto it = _openPrefetches.find(key(node, blk));
    if (it == _openPrefetches.end())
        return;
    Tick begin = it->second;
    _openPrefetches.erase(it);
    if (!inWindow(begin))
        return;
    push(TraceEvent{"prefetch", "prefetch", 'X', begin, t - begin, node,
                    kTidPrefetch, addrArg(blk)});
}

void
ChromeTracer::applyPfFate(NodeId node, Addr blk, audit::Fate fate, Tick t)
{
    // A fate can arrive while the prefetch is still in flight (a demand
    // merge); close the open interval so a re-prefetch starts clean.
    auto it = _openPrefetches.find(key(node, blk));
    if (it != _openPrefetches.end()) {
        Tick begin = it->second;
        _openPrefetches.erase(it);
        if (inWindow(begin)) {
            push(TraceEvent{"prefetch", "prefetch", 'X', begin, t - begin,
                            node, kTidPrefetch, addrArg(blk)});
        }
    }
    if (!inWindow(t))
        return;
    push(TraceEvent{audit::toString(fate), "prefetch-fate", 'i', t, 0,
                    node, kTidPrefetch, addrArg(blk)});
}

void
ChromeTracer::meshMessage(NodeId src, NodeId dst, unsigned flits,
                          Tick inject, Tick arrival)
{
    if (!inWindow(inject))
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"dst\":%u,\"flits\":%u}", dst,
                  flits);
    push(TraceEvent{"msg", "mesh", 'X', inject, arrival - inject, kMeshPid,
                    src, buf});
}

void
ChromeTracer::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const auto &e : _events) {
        os << (first ? "" : ",") << "{\"name\":" << json::quote(e.name)
           << ",\"cat\":\"" << e.cat
           << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts;
        if (e.ph == 'X')
            os << ",\"dur\":" << e.dur;
        else
            os << ",\"s\":\"t\"";
        os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
        if (!e.args.empty())
            os << ",\"args\":" << e.args;
        os << "}";
        first = false;
    }
    os << "]}\n";
}

} // namespace psim
