#include "sys/machine.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/logging.hh"
#include "sim/sampler.hh"
#include "trace/chrome_trace.hh"

namespace psim
{

Machine::Machine(MachineConfig cfg)
    : _cfg(cfg),
      _store(cfg.pageSize),
      _mesh(_eq, _cfg)
{
    _cfg.validate();
    if (_cfg.audit && audit::compiledIn()) {
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
Machine::enableTracing(TraceWriter &writer)
{
    psim_assert(!_ran, "tracing must attach before run()");
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
    _sampler = std::make_unique<stats::Sampler>(_eq, interval);
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
    _sampler->start();
}

void
Machine::enableCommitRecording(check::CommitSink &sink)
{
    psim_assert(!_ran, "commit recording must attach before run()");
    psim_assert(!_commitSink, "commit recording already enabled");
    _commitSink = &sink;
}

void
Machine::enableChromeTrace(Tick start, Tick end)
{
    psim_assert(!_ran, "chrome tracing must attach before run()");
    psim_assert(!_chrome, "chrome tracing already enabled");
    _chrome = std::make_unique<ChromeTracer>(start, end);
    for (auto &node : _nodes)
        node->slc().setChromeTracer(_chrome.get());
    _mesh.setChromeTracer(_chrome.get());
}

Tick
Machine::run(Tick limit)
{
    _ran = true;
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
