#include "sim/audit.hh"

#include <cinttypes>

#include "mem/slc.hh"
#include "proto/message.hh"
#include "sim/logging.hh"
#include "sys/machine.hh"
#include "sys/node.hh"

namespace psim::audit
{

const char *
toString(Fate f)
{
    switch (f) {
      case Fate::None:
        return "none";
      case Fate::UsefulTagged:
        return "useful-tagged";
      case Fate::UsefulLate:
        return "useful-late";
      case Fate::WriteHit:
        return "write-hit";
      case Fate::Invalidated:
        return "invalidated";
      case Fate::Replaced:
        return "replaced";
      case Fate::AgedUnused:
        return "aged-unused";
      case Fate::ResidentAtEnd:
        return "resident-at-end";
    }
    return "?";
}

// ---- NodeAudit ----

void
NodeAudit::onIssue(Addr blk)
{
    if (hasLiveIssue(blk)) {
        psim_panic("node %u audit: prefetch issued while a previous issue "
                   "is still live (block %#" PRIx64 ")",
                   _node, blk);
    }
    _tracks[blk] = Fate::None;
    ++_issued;
}

void
NodeAudit::onFate(Addr blk, Fate f)
{
    Fate *last = _tracks.find(blk);
    if (!last) {
        psim_panic("node %u audit: fate '%s' for a block that was never "
                   "issued (block %#" PRIx64 ")",
                   _node, toString(f), blk);
    }
    if (*last != Fate::None) {
        psim_panic("node %u audit: second fate '%s' (previous fate '%s') "
                   "(block %#" PRIx64 ")",
                   _node, toString(f), toString(*last), blk);
    }
    *last = f;
    ++_fates[static_cast<std::size_t>(f)];
}

bool
NodeAudit::hasLiveIssue(Addr blk) const
{
    const Fate *last = _tracks.find(blk);
    return last && *last == Fate::None;
}

void
NodeAudit::checkTaggedFill(Addr blk) const
{
    if (!hasLiveIssue(blk)) {
        psim_panic("node %u audit: prefetched tag set without a live "
                   "recorded issue (block %#" PRIx64 ")",
                   _node, blk);
    }
}

void
NodeAudit::checkSlwb(std::size_t occupancy, std::size_t cap,
                     bool for_prefetch, const char *where) const
{
    if (for_prefetch) {
        // Prefetch allocations are checked synchronously with the
        // reserve rule, so the bound is exact: the allocation must
        // leave the last slot free for demand accesses.
        if (occupancy >= cap) {
            psim_panic("node %u: prefetch filled the SLWB slot reserved "
                       "for demand accesses (%zu/%zu, %s)",
                       _node, occupancy, cap, where);
        }
        return;
    }
    // Demand accesses are admitted one tag-array access before they
    // allocate; a block that was resident at admission (needing no
    // slot) but invalidated inside that window legitimately
    // over-commits the SLWB by a single entry.
    if (occupancy > cap + 1) {
        psim_panic("node %u SLWB occupancy %zu exceeds capacity %zu (%s)",
                   _node, occupancy, cap, where);
    }
}

void
NodeAudit::finalize(const Slc &slc)
{
    _tracks.forEach([this](Addr blk, Fate last) {
        if (last == Fate::None) {
            psim_panic("node %u audit: issued prefetch never reached a "
                       "terminal fate (block %#" PRIx64 ")",
                       _node, blk);
        }
    });

    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumFates; ++i)
        sum += _fates[i];
    if (sum != _issued) {
        psim_panic("node %u audit: conservation violated: issued %" PRIu64
                   " != sum of fates %" PRIu64,
                   _node, _issued, sum);
    }

    // The tracker counts every fate independently of the stats package;
    // the two must agree bucket by bucket or one of them drifted.
    if (_issued != slc.pfIssued.value()) {
        psim_panic("node %u audit: issue count %" PRIu64
                   " disagrees with stat pfIssued %" PRIu64,
                   _node, _issued, slc.pfIssued.value());
    }
    for (std::size_t i = 1; i < kNumFates; ++i) {
        const Fate f = static_cast<Fate>(i);
        if (fateCount(f) != slc.pf(f).value()) {
            psim_panic("node %u audit: fate '%s' counted %" PRIu64
                       " times but stat %s is %" PRIu64,
                       _node, toString(f), fateCount(f),
                       Slc::fateStatName(f), slc.pf(f).value());
        }
    }
}

// ---- MachineAudit ----

MachineAudit::MachineAudit(unsigned num_procs)
    : _numProcs(num_procs)
{
    _nodes.reserve(num_procs);
    for (NodeId n = 0; n < num_procs; ++n)
        _nodes.push_back(std::make_unique<NodeAudit>(n));
}

void
MachineAudit::onMeshInject(NodeId src, NodeId dst, unsigned flits)
{
    if (src >= _numProcs || dst >= _numProcs || src == dst) {
        psim_panic("audit: mesh injection %u -> %u out of range", src,
                   dst);
    }
    if (flits < MachineConfig::headerFlits)
        psim_panic("audit: %u-flit message shorter than its header", flits);
    ++_meshInjected;
}

void
MachineAudit::onDeliver(const Message &m)
{
    if (m.src >= _numProcs || m.dst >= _numProcs ||
        (m.requester != kNodeNone && m.requester >= _numProcs)) {
        psim_panic("audit: delivered message %s with bad node ids "
                   "%u -> %u (requester %u)",
                   toString(m.type), m.src, m.dst, m.requester);
    }
    if (m.src != m.dst)
        ++_meshDelivered;
}

void
MachineAudit::finalize(const Machine &m)
{
    if (_meshInjected != _meshDelivered) {
        psim_panic("audit: mesh message conservation violated: "
                   "%" PRIu64 " injected, %" PRIu64 " delivered",
                   _meshInjected, _meshDelivered);
    }
    for (NodeId n = 0; n < _numProcs; ++n) {
        const MemCtrl &mem = m.node(n).mem();
        std::size_t held = mem.locks().heldLocks();
        std::size_t waiting = mem.locks().queuedWaiters();
        if (held != 0 || waiting != 0) {
            psim_panic("audit: node %u memory still holds %zu locks with "
                       "%zu waiters at end of run",
                       n, held, waiting);
        }
        std::size_t pending = mem.barrier().pendingEpisodes();
        if (pending != 0) {
            psim_panic("audit: node %u has %zu unfinished barrier "
                       "episodes at end of run",
                       n, pending);
        }
        // Every operation costs one pclock plus the stall its counter
        // records, and think time is all the rest: the counters must
        // account for every tick up to the finish.
        const Cpu &cpu = m.node(n).cpu();
        const std::uint64_t accounted =
                cpu.loads.value() + cpu.stores.value() +
                cpu.locks.value() + cpu.barriers.value() + cpu.unlocks() +
                cpu.readStall.value() + cpu.lockStall.value() +
                cpu.barrierStall.value() + cpu.writeStall.value() +
                cpu.thinkTicks.value();
        if (cpu.finishTick.value() != accounted) {
            psim_panic("audit: node %u time law violated: finished at "
                       "tick %" PRIu64 ", counters account for %" PRIu64,
                       n, cpu.finishTick.value(), accounted);
        }
    }
}

LedgerSnapshot
MachineAudit::exportLedger() const
{
    LedgerSnapshot snap;
    snap.nodes.resize(_nodes.size());
    for (std::size_t n = 0; n < _nodes.size(); ++n) {
        const NodeAudit &na = *_nodes[n];
        snap.nodes[n].issued = na.issued();
        for (std::size_t f = 0; f < kNumFates; ++f) {
            snap.nodes[n].fates[f] =
                    na.fateCount(static_cast<Fate>(f));
        }
    }
    return snap;
}

} // namespace psim::audit
