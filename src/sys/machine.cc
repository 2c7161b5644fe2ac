#include "sys/machine.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/logging.hh"
#include "sim/sampler.hh"
#include "sim/shard.hh"
#include "trace/chrome_trace.hh"

namespace psim
{

Machine::Machine(MachineConfig cfg)
    : _cfg(cfg),
      _store(cfg.pageSize),
      _mesh(_eq, _cfg)
{
    _cfg.validate();
    if (_cfg.shards > 0) {
        _nshards = std::min(_cfg.shards, _cfg.numProcs);
        // Contiguous node blocks per shard; every queue orders events
        // by (tick, owner node, per-node counter), so the partition
        // never changes what fires when -- only on which thread.
        _shardOfNode.resize(_cfg.numProcs);
        for (NodeId n = 0; n < _cfg.numProcs; ++n) {
            _shardOfNode[n] = static_cast<unsigned>(
                    static_cast<std::uint64_t>(n) * _nshards /
                    _cfg.numProcs);
        }
        for (unsigned s = 0; s < _nshards; ++s) {
            _shardEqs.push_back(std::make_unique<EventQueue>());
            _shardEqs.back()->setShardOrder(_cfg.numProcs);
        }
        _outboxes.resize(_cfg.numProcs);
        // Cross-shard lookahead: the cheapest possible remote message
        // pays one node fall-through plus a header-only worm, so a
        // message sent inside a window this wide can only arrive at or
        // after its end (asserted per message in the exchange).
        _windowLookahead = _cfg.fallThrough * _cfg.netCycle +
                           _cfg.headerFlits * _cfg.netCycle;
    }
    if (_cfg.audit && audit::compiledIn()) {
        // The audit is shard-safe: per-node trackers are only touched
        // by their node's owning shard, lock rings are per home node,
        // and the one cross-shard counter (mesh deliveries) is atomic.
        _audit = std::make_unique<audit::MachineAudit>(_cfg.numProcs);
        _mesh.setAudit(_audit.get());
    }
    _nodes.reserve(_cfg.numProcs);
    for (NodeId n = 0; n < _cfg.numProcs; ++n)
        _nodes.push_back(std::make_unique<Node>(*this, n));

    // Every component registers its statistics group; registration
    // order fixes the (deterministic) dump order.
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        Node &node = *_nodes[n];
        std::string prefix = "node" + std::to_string(n);
        node.cpu().registerStats(_registry.addGroup(prefix + ".cpu"));
        node.flc().registerStats(_registry.addGroup(prefix + ".flc"));
        node.flwb().registerStats(_registry.addGroup(prefix + ".flwb"));
        node.bus().registerStats(_registry.addGroup(prefix + ".bus"));
        node.slc().registerStats(_registry.addGroup(prefix + ".slc"));
        node.slc().prefetcher().registerStats(
                _registry.addGroup(prefix + ".pf"));
        node.mem().registerStats(_registry.addGroup(prefix + ".mem"));
    }
    _mesh.registerStats(_registry.addGroup("mesh"));
}

Machine::~Machine() = default;

void
Machine::send(const Message &m)
{
    bool data = carriesData(m.type);
    _nodes[m.src]->bus().transfer(data, [this, m, data] {
        if (m.dst == m.src) {
            deliver(m);
            return;
        }
        unsigned flits = _cfg.flitsFor(data ? _cfg.blockSize : 0);
        if (_nshards > 0) {
            // Mesh links are machine-global state (a message crosses
            // other shards' rows and columns), so even a same-shard
            // remote message waits in the outbox for the next window
            // boundary, where the exchange walks it through the mesh
            // single-threaded.
            _outboxes[m.src].msgs.push_back(
                    OutMsg{eqOf(m.src).now(), m, flits, data});
            return;
        }
        _mesh.send(m.src, m.dst, flits, [this, m, data] {
            _nodes[m.dst]->bus().transfer(data,
                    [this, m] { deliver(m); });
        });
    });
}

void
Machine::deliver(const Message &m)
{
    if (_audit)
        _audit->onDeliver(m);
    _nodes[m.dst]->deliver(m);
}

void
Machine::bindProgram(NodeId id, Task t)
{
    _nodes.at(id)->cpu().bind(std::move(t));
}

void
Machine::enableCharacterizers()
{
    psim_assert(!_ran, "characterizers must attach before run()");
    _chars.clear();
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        _chars.push_back(
                std::make_unique<StrideCharacterizer>(_cfg.blockSize));
        _nodes[n]->slc().setCharacterizer(_chars.back().get());
    }
}

void
Machine::requireSerialEngine(const char *what) const
{
    // The one consistent gate for serial-only observers: fail loudly
    // (never warn-and-disable) with one message shape, so a sharded
    // run can never silently lose an observer the caller asked for.
    psim_assert(_nshards == 0,
            "%s is not shard-aware: it needs the serial engine "
            "(--shards 0), got shards=%u", what, _nshards);
}

void
Machine::enableTracing(TraceWriter &writer)
{
    psim_assert(!_ran, "tracing must attach before run()");
    // The binary SLC trace interleaves per-request records into one
    // append-only writer whose record order is the contract checked by
    // trace_tool; there is no per-node staging representation to merge,
    // so it stays serial-only.
    requireSerialEngine("the binary SLC reference trace");
    for (auto &node : _nodes) {
        node->slc().setTraceSink(
                [&writer](const TraceRecord &rec) { writer.append(rec); });
    }
}

void
Machine::enableSampling(Tick interval)
{
    psim_assert(!_ran, "sampling must attach before run()");
    psim_assert(!_sampler, "sampling already enabled");
    if (_nshards > 0) {
        // Boundary-driven: runSharded feeds sampleAt() at the first
        // window boundary at or after each sample tick; windows are
        // never reshaped, so sampling cannot perturb the run.
        _sampler = std::make_unique<stats::Sampler>(interval);
    } else {
        _sampler = std::make_unique<stats::Sampler>(_eq, interval);
    }
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        Node *node = _nodes[n].get();
        std::string prefix = "node" + std::to_string(n);
        _sampler->addProbe(prefix + ".readMisses", [node] {
            return node->slc().demandReadMisses.value();
        });
        _sampler->addProbe(prefix + ".pfIssued", [node] {
            return node->slc().pfIssued.value();
        });
        _sampler->addProbe(prefix + ".pfUseful", [node] {
            return node->slc().usefulPrefetches();
        });
        _sampler->addProbe(prefix + ".slwbOccupancy", [node] {
            return static_cast<double>(node->slc().slwbOccupancy());
        });
        _sampler->addProbe(prefix + ".flwbOccupancy", [node] {
            return static_cast<double>(node->flwb().size());
        });
    }
    _sampler->addProbe("mesh.flits",
            [this] { return _mesh.flitsInjected.value(); });
    if (_nshards == 0)
        _sampler->start();
}

void
Machine::enableCommitRecording(check::CommitSink &sink)
{
    psim_assert(!_ran, "commit recording must attach before run()");
    psim_assert(!_commitSink, "commit recording already enabled");
    _commitSink = &sink;
    if (_nshards > 0)
        _commitLanes = std::vector<CommitLane>(_cfg.numProcs);
}

void
Machine::enableChromeTrace(Tick start, Tick end)
{
    psim_assert(!_ran, "chrome tracing must attach before run()");
    psim_assert(!_chrome, "chrome tracing already enabled");
    _chrome = std::make_unique<ChromeTracer>(start, end);
    if (_nshards > 0)
        _chrome->enableStaging(_cfg.numProcs);
    for (auto &node : _nodes)
        node->slc().setChromeTracer(_chrome.get());
    _mesh.setChromeTracer(_chrome.get());
}

Tick
Machine::run(Tick limit)
{
    _ran = true;
    if (_nshards > 0)
        return runSharded(limit);
    for (auto &node : _nodes)
        node->cpu().start();
    Tick end = _eq.run(limit);
    if (allFinished()) {
        for (auto &node : _nodes)
            node->slc().finalizeStats();
        if (_audit)
            _audit->finalize(*this);
    }
    return end;
}

Tick
Machine::runSharded(Tick limit)
{
    // Stamp each node's start event from that node's own counter so the
    // very first events already carry the canonical ordering keys.
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        eqOf(n).setContextOwner(n);
        _nodes[n]->cpu().start();
    }

    ShardGang gang(_nshards, [this](unsigned s) {
        _shardEqs[s]->runWindow(_windowEnd);
    });

    // Next sample tick, when sampling is on. Rows are emitted at the
    // first natural window boundary at or after each sample tick: once
    // nextSample <= start, every event below start has fired and none
    // at or above it has, so the snapshot is a quiescent cut. Windows
    // themselves are never altered by sampling -- shrinking a window
    // would change where cross-shard deliveries land relative to a
    // destination's own later schedules, permuting per-owner sequence
    // counters and with them same-tick tie-breaks; leaving boundaries
    // untouched makes sampling provably read-only, and because window
    // starts are shard-count-invariant the rows are byte-identical at
    // every shard count.
    Tick nextSample = _sampler ? _sampler->interval() : 0;
    bool quiesced = false;

    Tick end = 0;
    for (;;) {
        // Next window starts at the globally earliest pending event --
        // a shard-count-invariant quantity, so window boundaries (and
        // with them the exchange batches) are identical for every
        // partition. Idle stretches are skipped entirely.
        Tick start = kTickNever;
        for (auto &eq : _shardEqs)
            start = std::min(start, eq->nextWhen());
        if (start == kTickNever) {
            for (auto &eq : _shardEqs)
                end = std::max(end, eq->now());
            quiesced = true;
            break;
        }
        if (start > limit) {
            for (auto &eq : _shardEqs)
                eq->advanceTo(limit);
            end = limit;
            break;
        }
        if (_sampler) {
            while (nextSample <= start) {
                _sampler->sampleAt(nextSample);
                nextSample += _sampler->interval();
            }
        }
        Tick wend = start + _windowLookahead;
        if (limit != kTickNever)
            wend = std::min(wend, limit + 1);
        _windowEnd = wend;
        gang.runRound();
        // Observer lanes first (their ops happened inside the window),
        // then the exchange (whose mesh transits chronologically follow
        // into the chrome buffer, already in canonical order).
        drainObservers(wend);
        exchangeShardMessages(wend);
    }

    // Mirror the event-driven sampler's trailing row: it stops
    // rescheduling only after observing a drained queue, so the last
    // snapshot falls within one interval after the final event.
    if (_sampler && quiesced)
        _sampler->sampleAt(nextSample);

    if (allFinished()) {
        for (auto &node : _nodes)
            node->slc().finalizeStats();
        if (_audit)
            _audit->finalize(*this);
    }
    return end;
}

void
Machine::drainObservers(Tick window_end)
{
    if (_chrome)
        _chrome->drainStaged(window_end);
    if (_commitSink)
        drainCommitLanes(window_end);
}

void
Machine::drainCommitLanes(Tick window_end)
{
    // Same canonical (tick, node, per-node append index) order as the
    // message exchange and the chrome drain: identical to the order a
    // --shards 1 run calls the sink in, because same-tick events fire
    // node-major and appends within one node are tick-monotone.
    auto byTick = [](const XferRef &a, const XferRef &b) {
        if (a.tick != b.tick)
            return a.tick < b.tick;
        if (a.src != b.src)
            return a.src < b.src;
        return a.idx < b.idx;
    };

    _xfer.clear();
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        const auto &lane = _commitLanes[n].accesses;
        for (std::uint32_t i = 0; i < lane.size(); ++i) {
            psim_assert(lane[i].tick < window_end,
                    "staged commit record beyond its window");
            _xfer.push_back(XferRef{lane[i].tick, n, i});
        }
    }
    std::sort(_xfer.begin(), _xfer.end(), byTick);
    for (const XferRef &r : _xfer)
        _commitSink->onAccess(_commitLanes[r.src].accesses[r.idx]);

    _xfer.clear();
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        const auto &lane = _commitLanes[n].prefetches;
        for (std::uint32_t i = 0; i < lane.size(); ++i)
            _xfer.push_back(XferRef{lane[i].tick, n, i});
    }
    std::sort(_xfer.begin(), _xfer.end(), byTick);
    for (const XferRef &r : _xfer)
        _commitSink->onPrefetchIssue(_commitLanes[r.src].prefetches[r.idx]);

    for (CommitLane &lane : _commitLanes) {
        lane.accesses.clear();
        lane.prefetches.clear();
    }
}

void
Machine::exchangeShardMessages(Tick window_end)
{
    // Canonical replay order: (send tick, source node, append index).
    // Appends within one node happen in that node's deterministic event
    // order, so this order -- and therefore every mesh link claim and
    // mesh statistic -- is identical at every shard count.
    _xfer.clear();
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        const auto &box = _outboxes[n].msgs;
        for (std::uint32_t i = 0; i < box.size(); ++i)
            _xfer.push_back(XferRef{box[i].sendTick, n, i});
    }
    std::sort(_xfer.begin(), _xfer.end(),
            [](const XferRef &a, const XferRef &b) {
                if (a.tick != b.tick)
                    return a.tick < b.tick;
                if (a.src != b.src)
                    return a.src < b.src;
                return a.idx < b.idx;
            });
    for (const XferRef &r : _xfer) {
        const OutMsg &om = _outboxes[r.src].msgs[r.idx];
        Tick arrival = _mesh.traverse(r.src, om.msg.dst, om.flits,
                om.sendTick);
        psim_assert(arrival >= window_end,
                "cross-shard lookahead violated: arrival %llu < window "
                "end %llu", (unsigned long long)arrival,
                (unsigned long long)window_end);
        Message m = om.msg;
        bool data = om.data;
        eqOf(m.dst).scheduleRemote(arrival, m.dst, [this, m, data] {
            _nodes[m.dst]->bus().transfer(data,
                    [this, m] { deliver(m); });
        });
    }
    for (auto &box : _outboxes)
        box.msgs.clear();
}

bool
Machine::allFinished() const
{
    for (const auto &node : _nodes) {
        if (!node->cpu().finished())
            return false;
    }
    return true;
}

RunMetrics
Machine::metrics() const
{
    RunMetrics r;
    for (const auto &node : _nodes) {
        const Cpu &cpu = node->cpu();
        const Slc &slc = node->slc();
        r.execTicks = std::max(r.execTicks,
                static_cast<Tick>(cpu.finishTick.value()));
        r.reads += cpu.loads.value();
        r.writes += cpu.stores.value();
        r.readStall += cpu.readStall.value();
        r.slcReads += slc.demandReads.value();
        r.readMisses += slc.demandReadMisses.value();
        r.missesCold += slc.missesCold.value();
        r.missesCoherence += slc.missesCoherence.value();
        r.missesReplacement += slc.missesReplacement.value();
        r.pfIssued += slc.pfIssued.value();
        r.pfUseful += slc.usefulPrefetches();
        r.busTransactions += node->bus().transactions.value();
    }
    r.flits = _mesh.flitsInjected.value();
    return r;
}

void
Machine::dumpStats(std::ostream &os) const
{
    _registry.dump(os);
}

void
Machine::dumpStatsJson(std::ostream &os) const
{
    std::string extra;
    if (_sampler) {
        std::ostringstream ss;
        ss << ",\"samples\":";
        _sampler->dumpJson(ss);
        extra = ss.str();
    }
    _registry.dumpJson(os, extra);
}

void
Machine::checkCoherenceInvariants() const
{
    // Block address -> (modified copies, shared copies bitmask).
    struct BlockView
    {
        unsigned modified = 0;
        std::uint64_t sharers = 0;
        NodeId owner = kNodeNone;
    };
    std::map<Addr, BlockView> view;

    for (const auto &node : _nodes) {
        psim_assert(node->slc().pendingTransactions() == 0,
                "invariant check while node %u has pending transactions",
                node->id());
        node->slc().array().forEach([&](const CacheBlk &blk) {
            BlockView &v = view[blk.addr];
            if (blk.state == CohState::Modified) {
                ++v.modified;
                v.owner = node->id();
            } else {
                v.sharers |= 1ULL << node->id();
            }
        });
    }

    for (const auto &[addr, v] : view) {
        psim_assert(v.modified <= 1,
                "block %llx has %u modified copies",
                (unsigned long long)addr, v.modified);
        psim_assert(v.modified == 0 || v.sharers == 0,
                "block %llx is both modified and shared",
                (unsigned long long)addr);

        auto snap = _nodes[_cfg.homeOf(addr)]->mem().snapshot(addr);
        psim_assert(!snap.busy, "directory entry %llx busy at quiesce",
                (unsigned long long)addr);
        if (v.modified == 1) {
            psim_assert(snap.st == MemCtrl::DirSnapshot::St::Dirty &&
                        snap.owner == v.owner,
                    "directory disagrees about owner of %llx",
                    (unsigned long long)addr);
        } else {
            // Every shared copy must be covered by a presence bit
            // (silent evictions may leave stale presence bits, which is
            // harmless, but never the reverse).
            psim_assert(snap.st != MemCtrl::DirSnapshot::St::Dirty,
                    "directory thinks %llx is dirty but no cache owns it",
                    (unsigned long long)addr);
            psim_assert((v.sharers & ~snap.presence) == 0,
                    "cache holds %llx without a presence bit",
                    (unsigned long long)addr);
        }
    }

    // FLC/SLC inclusion: every FLC-resident block is SLC-resident.
    for (const auto &node : _nodes) {
        const Slc &slc = node->slc();
        node->flc().array().forEach([&](const CacheBlk &blk) {
            psim_assert(slc.stateOf(blk.addr) != CohState::Invalid,
                    "node %u FLC holds %llx not in its SLC", node->id(),
                    (unsigned long long)blk.addr);
        });
    }
}

} // namespace psim
