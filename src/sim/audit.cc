#include "sim/audit.hh"

#include <cinttypes>
#include <cstdio>

#include "mem/slc.hh"
#include "proto/message.hh"
#include "sim/logging.hh"
#include "sys/machine.hh"
#include "sys/node.hh"

namespace psim::audit
{

namespace
{

/** Events kept per block; enough to reconstruct several issue rounds. */
constexpr std::size_t kHistoryCap = 32;

/** Lock events kept in the machine-wide ring. */
constexpr std::size_t kLockRingCap = 64;

} // namespace

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

const char *
toString(Event e)
{
    switch (e) {
      case Event::Issue:
        return "issue";
      case Event::Fill:
        return "fill";
      case Event::DemandMerge:
        return "demand-merge";
      case Event::TaggedReadHit:
        return "tagged-read-hit";
      case Event::TaggedWriteHit:
        return "tagged-write-hit";
      case Event::DeferredStoreHit:
        return "deferred-store-hit";
      case Event::Invalidated:
        return "invalidated";
      case Event::Replaced:
        return "replaced";
      case Event::AgedOut:
        return "aged-out";
      case Event::EndOfRun:
        return "end-of-run";
    }
    return "?";
}

// ---- NodeAudit ----

void
NodeAudit::record(Track &t, Event e, Tick now)
{
    if (t.hist.size() >= kHistoryCap)
        t.hist.pop_front();
    t.hist.emplace_back(now, e);
}

void
NodeAudit::onIssue(Addr blk, Pc pc, Tick now)
{
    (void)pc;
    Track &t = _tracks[blk];
    if (t.live)
        fail(blk, "prefetch issued while a previous issue is still live");
    t.live = true;
    t.lastFate = Fate::None;
    ++t.issues;
    ++_issued;
    record(t, Event::Issue, now);
}

void
NodeAudit::onEvent(Addr blk, Event e, Tick now)
{
    auto it = _tracks.find(blk);
    if (it != _tracks.end())
        record(it->second, e, now);
}

void
NodeAudit::onFate(Addr blk, Fate f, Event e, Tick now)
{
    auto it = _tracks.find(blk);
    if (it == _tracks.end())
        fail(blk, std::string("fate '") + toString(f) +
                          "' for a block that was never issued");
    Track &t = it->second;
    if (!t.live)
        fail(blk, std::string("second fate '") + toString(f) +
                          "' (previous fate '" + toString(t.lastFate) +
                          "')");
    t.live = false;
    t.lastFate = f;
    ++_fates[static_cast<std::size_t>(f)];
    record(t, e, now);
}

bool
NodeAudit::hasLiveIssue(Addr blk) const
{
    auto it = _tracks.find(blk);
    return it != _tracks.end() && it->second.live;
}

void
NodeAudit::checkTaggedFill(Addr blk) const
{
    if (!hasLiveIssue(blk))
        fail(blk, "prefetched tag set without a live recorded issue");
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
NodeAudit::fail(Addr blk, const std::string &msg) const
{
    std::fprintf(stderr,
                 "==== audit failure: node %u, block %#" PRIx64 " ====\n",
                 _node, blk);
    auto it = _tracks.find(blk);
    if (it == _tracks.end()) {
        std::fprintf(stderr, "  (no recorded prefetch history)\n");
    } else {
        const Track &t = it->second;
        std::fprintf(stderr, "  issues: %u, live: %s, last fate: %s\n",
                     t.issues, t.live ? "yes" : "no",
                     toString(t.lastFate));
        for (const auto &[tick, ev] : t.hist) {
            std::fprintf(stderr, "  tick %12" PRIu64 "  %s\n",
                         static_cast<std::uint64_t>(tick), toString(ev));
        }
    }
    psim_panic("node %u audit: %s (block %#" PRIx64 ")", _node,
               msg.c_str(), blk);
}

void
NodeAudit::finalize(const Slc &slc)
{
    for (const auto &[blk, t] : _tracks) {
        if (t.live)
            fail(blk, "issued prefetch never reached a terminal fate");
    }

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
    struct Check
    {
        Fate fate;
        const stats::Scalar *stat;
        const char *name;
    };
    const Check checks[] = {
        {Fate::UsefulTagged, &slc.pfUsefulTagged, "pfUsefulTagged"},
        {Fate::UsefulLate, &slc.pfUsefulLate, "pfUsefulLate"},
        {Fate::WriteHit, &slc.pfWriteHitTagged, "pfWriteHitTagged"},
        {Fate::Invalidated, &slc.pfUselessInvalidated,
         "pfUselessInvalidated"},
        {Fate::Replaced, &slc.pfUselessReplaced, "pfUselessReplaced"},
        {Fate::AgedUnused, &slc.pfAgedUnused, "pfAgedUnused"},
        {Fate::ResidentAtEnd, &slc.pfUselessUnused, "pfUselessUnused"},
    };
    if (_issued != slc.pfIssued.value()) {
        psim_panic("node %u audit: issue count %" PRIu64
                   " disagrees with stat pfIssued %" PRIu64,
                   _node, _issued, slc.pfIssued.value());
    }
    for (const Check &c : checks) {
        if (fateCount(c.fate) != c.stat->value()) {
            psim_panic("node %u audit: fate '%s' counted %" PRIu64
                       " times but stat %s is %" PRIu64,
                       _node, toString(c.fate), fateCount(c.fate),
                       c.name, c.stat->value());
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
MachineAudit::onLockEvent(Addr lock, NodeId node, const char *what)
{
    if (_lockEvents.size() >= kLockRingCap)
        _lockEvents.pop_front();
    _lockEvents.push_back(LockEvent{lock, node, what});
}

void
MachineAudit::failLock(Addr lock, const std::string &msg)
{
    std::fprintf(stderr,
                 "==== audit failure: lock %#" PRIx64
                 " (recent lock events) ====\n",
                 lock);
    for (const LockEvent &e : _lockEvents) {
        std::fprintf(stderr, "  lock %#" PRIx64 "  node %2u  %s\n",
                     e.lock, e.node, e.what);
    }
    psim_panic("lock audit: %s (lock %#" PRIx64 ")", msg.c_str(), lock);
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
