#include "trace/chrome_trace.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/json.hh"

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
ChromeTracer::demandMissStart(NodeId node, Addr blk, Tick t)
{
    _openMisses[key(node, blk)] = t;
}

void
ChromeTracer::demandMissEnd(NodeId node, Addr blk, Tick t)
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
ChromeTracer::prefetchIssue(NodeId node, Addr blk, Tick t)
{
    _openPrefetches[key(node, blk)] = t;
}

void
ChromeTracer::prefetchFill(NodeId node, Addr blk, Tick t)
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
ChromeTracer::prefetchFate(NodeId node, Addr blk, audit::Fate fate, Tick t)
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
