#include "mem/mem_ctrl.hh"

#include <bit>

#include "sim/logging.hh"
#include "sys/machine.hh"

namespace psim
{

MemCtrl::MemCtrl(Machine &m, NodeId id)
    : _m(m),
      _eq(m.eq()),
      _id(id),
      _locks([this](NodeId dst, Addr addr) {
          reply(MsgType::LockGrant, dst, addr, 0);
      }),
      _barrier([this](NodeId dst, Addr addr) {
          reply(MsgType::BarrierGo, dst, addr, 0);
      })
{
    _audit = m.auditor();
    _locks.setAudit(_audit);
}

void
MemCtrl::auditCheckEntry(const DirEntry &ent, const Message &m) const
{
    auto bad = [&](const char *what) {
        psim_panic("home %u audit: directory entry for %#llx %s "
                   "(st %u presence %#llx owner %u busy %u acks %u "
                   "fetchFrom %u, on %s from %u)",
                   _id, (unsigned long long)m.addr, what,
                   (unsigned)ent.st, (unsigned long long)ent.presence,
                   ent.owner, (unsigned)ent.busy, (unsigned)ent.pendingAcks,
                   ent.fetchFrom, toString(m.type), m.src);
    };
    switch (ent.st) {
      case DirEntry::St::Uncached:
        if (ent.presence != 0 || ent.owner != kNodeNone)
            bad("uncached with sharers or an owner");
        break;
      case DirEntry::St::Clean:
        if (ent.owner != kNodeNone)
            bad("clean but has an owner");
        break;
      case DirEntry::St::Dirty:
        if (ent.owner == kNodeNone || ent.presence != 0)
            bad("dirty without a sole owner");
        if (ent.owner >= _m.cfg().numProcs)
            bad("owned by a node outside the machine");
        break;
    }
    if (_m.cfg().numProcs < 64 &&
        (ent.presence >> _m.cfg().numProcs) != 0)
        bad("has presence bits for nodes outside the machine");
    if (ent.busy && ent.pendingAcks == 0 && ent.fetchFrom == kNodeNone)
        bad("busy with neither pending acks nor an outstanding fetch");
    if (!ent.busy && (ent.pendingAcks != 0 || ent.fetchFrom != kNodeNone))
        bad("idle but has a pending ack round or fetch");
}

bool
MemCtrl::isMigratory(Addr blk_addr) const
{
    const DirEntry *e = _dir.find(blk_addr);
    return e && e->migratory;
}

void
MemCtrl::grantedExclusive(DirEntry &ent, NodeId req)
{
    if (_m.cfg().migratoryOpt && !ent.migratory &&
        ent.lastWriter != kNodeNone && ent.lastWriter != req) {
        // The writer moved between nodes: evidence of migration. Two
        // consecutive migrations classify the block migratory.
        if (++ent.migEvidence >= 2) {
            ent.migratory = true;
            ent.migWasted = 0;
            ++migratoryDetected;
        }
    }
    ent.lastWriter = req;
}

MemCtrl::DirSnapshot
MemCtrl::snapshot(Addr blk_addr) const
{
    DirSnapshot s;
    const DirEntry *e = _dir.find(blk_addr);
    if (!e)
        return s;
    s.st = static_cast<DirSnapshot::St>(e->st);
    s.presence = e->presence;
    s.owner = e->owner;
    s.busy = e->busy;
    return s;
}

void
MemCtrl::reply(MsgType t, NodeId dst, Addr addr, Tick extra)
{
    // All latency is charged on the processing path (receive()), so
    // sends happen in processing order and the network's per-path FIFO
    // guarantees that an invalidation can never overtake an earlier
    // data reply to the same node.
    psim_assert(extra == 0, "replies must not be delayed");
    Message r;
    r.type = t;
    r.src = _id;
    r.dst = dst;
    r.requester = dst;
    r.addr = addr;
    _m.send(r);
}

void
MemCtrl::sendFetch(MsgType t, NodeId owner, Addr addr, NodeId requester)
{
    ++fetchesSent;
    Message f;
    f.type = t;
    f.src = _id;
    f.dst = owner;
    f.requester = requester;
    f.addr = addr;
    _m.send(f);
}

void
MemCtrl::receive(const Message &m)
{
    // The memory is fully interleaved: banks serialize only on the
    // directory-access granularity. Coherence traffic additionally pays
    // the 90 ns DRAM access before it is acted upon, so every message
    // class experiences the same processing delay and arrival order is
    // preserved into send order (see reply()).
    Tick delay = _m.cfg().dirLat;
    switch (m.type) {
      case MsgType::ReadReq:
      case MsgType::ReadExReq:
      case MsgType::UpgradeReq:
      case MsgType::WritebackReq:
      case MsgType::FetchReply:
      case MsgType::InvAck:
        delay += _m.cfg().memAccessLat;
        break;
      default:
        break;
    }
    Tick start = _bank.claim(_eq.now(), _m.cfg().dirLat);
    Message copy = m;
    _eq.schedule(start + delay, [this, copy] { process(copy); });
}

void
MemCtrl::process(const Message &m)
{
    switch (m.type) {
      case MsgType::LockReq:
        _locks.request(m.src, m.addr);
        return;
      case MsgType::LockRel:
        _locks.release(m.src, m.addr);
        return;
      case MsgType::BarrierArrive:
        _barrier.arrive(m.src, m.addr, m.aux);
        return;
      default:
        handleCoherent(m);
    }
}

void
MemCtrl::handleCoherent(const Message &m)
{
    psim_assert(_m.cfg().homeOf(m.addr) == _id,
            "message for %llx reached wrong home %u",
            (unsigned long long)m.addr, _id);
    DirEntry &ent = _dir[m.addr];
    if (_audit)
        auditCheckEntry(ent, m);

    switch (m.type) {
      case MsgType::ReadReq:
      case MsgType::ReadExReq:
      case MsgType::UpgradeReq:
        if (ent.busy || ent.replayPending) {
            ++queuedAtBusyEntry;
            _waiting[m.addr].push_back(m);
            return;
        }
        startOp(ent, m);
        return;

      case MsgType::WritebackReq:
        ++writebacksRecv;
        if (ent.busy && ent.fetchFrom == m.src) {
            // The owner's writeback crossed our fetch request; use it
            // as the fetch reply. The owner gave up its copy entirely.
            reply(MsgType::WritebackAck, m.src, m.addr, 0);
            ownerDataArrived(ent, m.addr, false, true);
            return;
        }
        psim_assert(ent.st == DirEntry::St::Dirty && ent.owner == m.src,
                "writeback of %llx from non-owner %u",
                (unsigned long long)m.addr, m.src);
        ent.st = DirEntry::St::Uncached;
        ent.owner = kNodeNone;
        ent.presence = 0;
        reply(MsgType::WritebackAck, m.src, m.addr, 0);
        return;

      case MsgType::FetchReply:
        psim_assert(ent.busy && ent.fetchFrom == m.src,
                "unexpected fetch reply for %llx from %u",
                (unsigned long long)m.addr, m.src);
        ownerDataArrived(ent, m.addr, ent.pendingShared, m.aux != 0);
        return;

      case MsgType::InvAck:
        psim_assert(ent.busy && ent.pendingAcks > 0,
                "unexpected inv ack for %llx", (unsigned long long)m.addr);
        if (--ent.pendingAcks == 0)
            acksComplete(ent, m.addr);
        return;

      default:
        psim_panic("home %u: unexpected message %s", _id,
                toString(m.type));
    }
}

void
MemCtrl::startReadEx(DirEntry &ent, const Message &m, bool as_upgrade)
{
    NodeId req = m.requester;
    switch (ent.st) {
      case DirEntry::St::Uncached:
        ent.st = DirEntry::St::Dirty;
        ent.owner = req;
        ent.presence = 0;
        grantedExclusive(ent, req);
        reply(MsgType::DataExReply, req, m.addr, 0);
        return;
      case DirEntry::St::Clean: {
        std::uint64_t others = ent.presence & ~bit(req);
        bool had_copy = (ent.presence & bit(req)) != 0;
        if (others == 0) {
            ent.st = DirEntry::St::Dirty;
            ent.owner = req;
            ent.presence = 0;
            grantedExclusive(ent, req);
            if (as_upgrade && had_copy) {
                reply(MsgType::UpgradeAck, req, m.addr, 0);
            } else {
                reply(MsgType::DataExReply, req, m.addr, 0);
            }
            return;
        }
        ent.busy = true;
        ent.requester = req;
        ent.pendingShared = false;
        // Remember whether the requester keeps its shared copy so the
        // completion can pick UpgradeAck vs DataExReply.
        ent.pendingUpgrade = as_upgrade && had_copy;
        ent.pendingAcks =
                static_cast<std::uint8_t>(std::popcount(others));
        for (NodeId n = 0; n < _m.cfg().numProcs; ++n) {
            if (others & bit(n)) {
                ++invalidationsSent;
                Message inv;
                inv.type = MsgType::InvReq;
                inv.src = _id;
                inv.dst = n;
                inv.requester = req;
                inv.addr = m.addr;
                _m.send(inv);
            }
        }
        return;
      }
      case DirEntry::St::Dirty:
        psim_assert(ent.owner != req,
                "owner %u write-missing its own block", req);
        ent.busy = true;
        ent.requester = req;
        ent.pendingShared = false;
        ent.pendingUpgrade = false;
        ent.fetchFrom = ent.owner;
        sendFetch(MsgType::FetchInvReq, ent.owner, m.addr, req);
        return;
    }
}

void
MemCtrl::startOp(DirEntry &ent, const Message &m)
{
    NodeId req = m.requester;
    switch (m.type) {
      case MsgType::ReadReq:
        ++readReqs;
        switch (ent.st) {
          case DirEntry::St::Uncached:
          case DirEntry::St::Clean:
            ent.st = DirEntry::St::Clean;
            ent.presence |= bit(req);
            reply(MsgType::DataReply, req, m.addr, 0);
            return;
          case DirEntry::St::Dirty:
            psim_assert(ent.owner != req,
                    "owner %u read-missing its own block", req);
            ent.busy = true;
            ent.requester = req;
            ent.pendingShared = true;
            ent.pendingUpgrade = false;
            ent.fetchFrom = ent.owner;
            if (_m.cfg().migratoryOpt && ent.migratory) {
                // Migratory block: hand the reader an exclusive copy
                // so its expected write needs no upgrade.
                ++migratoryGrants;
                ent.pendingShared = false;
                sendFetch(MsgType::FetchInvReq, ent.owner, m.addr, req);
            } else {
                sendFetch(MsgType::FetchReq, ent.owner, m.addr, req);
            }
            return;
        }
        return;

      case MsgType::ReadExReq:
        ++readExReqs;
        startReadEx(ent, m, false);
        return;

      case MsgType::UpgradeReq:
        ++upgradeReqs;
        if (ent.st == DirEntry::St::Clean && (ent.presence & bit(req))) {
            startReadEx(ent, m, true);
        } else {
            // The requester's copy was invalidated while the upgrade
            // was in flight; service it as a full read-exclusive.
            ++convertedUpgrades;
            startReadEx(ent, m, false);
        }
        return;

      default:
        psim_panic("startOp on %s", toString(m.type));
    }
}

void
MemCtrl::ownerDataArrived(DirEntry &ent, Addr addr, bool owner_kept_copy,
                          bool owner_wrote)
{
    NodeId req = ent.requester;
    NodeId old_owner = ent.fetchFrom;
    ent.fetchFrom = kNodeNone;

    if (ent.migratory) {
        // Demote after two consecutive exclusive handoffs the previous
        // owner never wrote to: the block is being read-shared.
        if (owner_wrote) {
            ent.migWasted = 0;
        } else if (++ent.migWasted >= 2) {
            ent.migratory = false;
            ent.migEvidence = 0;
            ent.migWasted = 0;
            ++migratoryDemotions;
        }
    }

    if (ent.pendingShared) {
        ent.st = DirEntry::St::Clean;
        ent.presence = bit(req);
        if (owner_kept_copy)
            ent.presence |= bit(old_owner);
        ent.owner = kNodeNone;
        reply(MsgType::DataReply, req, addr, 0);
    } else {
        ent.st = DirEntry::St::Dirty;
        ent.owner = req;
        ent.presence = 0;
        grantedExclusive(ent, req);
        reply(MsgType::DataExReply, req, addr, 0);
    }
    ent.busy = false;
    unblock(ent, addr);
}

void
MemCtrl::acksComplete(DirEntry &ent, Addr addr)
{
    NodeId req = ent.requester;
    bool as_upgrade = ent.pendingUpgrade;
    ent.st = DirEntry::St::Dirty;
    ent.owner = req;
    ent.presence = 0;
    grantedExclusive(ent, req);
    if (as_upgrade)
        reply(MsgType::UpgradeAck, req, addr, 0);
    else
        reply(MsgType::DataExReply, req, addr, 0);
    ent.busy = false;
    unblock(ent, addr);
}

void
MemCtrl::unblock(DirEntry &ent, Addr addr)
{
    std::vector<Message> *q = _waiting.find(addr);
    if (!q)
        return;
    Message next = q->front();
    q->erase(q->begin());
    if (q->empty())
        _waiting.erase(addr);
    // Queued requests replay against row-buffer-hot data: they pay the
    // directory access but not a fresh DRAM access.
    ent.replayPending = true;
    _eq.scheduleIn(_m.cfg().dirLat, [this, next] {
        DirEntry &e = _dir[next.addr];
        e.replayPending = false;
        psim_assert(!e.busy, "queued request replayed into busy entry");
        startOp(e, next);
        if (!e.busy)
            unblock(e, next.addr);
    });
}

} // namespace psim
