#include "mem/slc.hh"

#include <algorithm>
#include <vector>

#include "check/access_log.hh"
#include "mem/flc.hh"
#include "sim/logging.hh"
#include "sys/cpu.hh"
#include "sys/machine.hh"
#include "trace/chrome_trace.hh"

namespace psim
{

Slc::Slc(Machine &m, NodeId id, Flc &flc, Cpu &cpu)
    : _m(m),
      _eq(m.eq()),
      _id(id),
      _flc(flc),
      _cpu(cpu),
      _array(m.cfg().slcSize, m.cfg().slcAssoc, m.cfg().blockSize),
      _prefetcher(Prefetcher::create(m.cfg())),
      _slwbCap(m.cfg().slwbEntries)
{
    if (audit::MachineAudit *a = m.auditor())
        _audit = &a->node(id);
    _wantContent = _prefetcher->wantsBlockContent();
    if (_wantContent)
        _contentBuf.resize(m.cfg().blockSize);
}

Slc::Mshr *
Slc::findMshr(Addr blk_addr)
{
    return _mshrs.find(blk_addr);
}

bool
Slc::slwbHasRoom(bool demand) const
{
    std::size_t occ = slwbOccupancy();
    return demand ? occ < _slwbCap : occ + 1 < _slwbCap;
}

void
Slc::visitStats(stats::Visitor &v) const
{
    v.scalar("demandReads", "read requests presented by the FLC", demandReads);
    v.scalar("demandReadMisses", "demand read misses", demandReadMisses);
    v.scalar("missesCold", "cold misses", missesCold);
    v.scalar("missesCoherence", "coherence misses", missesCoherence);
    v.scalar("missesReplacement", "replacement misses", missesReplacement);
    v.scalar("writeRequests", "write requests presented by the FLWB",
            writeRequests);
    v.scalar("writeMisses", "stores needing read-exclusive", writeMisses);
    v.scalar("upgrades", "stores needing S->M upgrade", upgrades);
    v.scalar("writebacks", "dirty evictions", writebacks);
    v.scalar("invalidationsRecv", "invalidations received", invalidationsRecv);
    v.scalar("pfIssued", "prefetches issued", pfIssued);
    v.scalar("pfUsefulTagged", "demand hits on tagged blocks", pfUsefulTagged);
    v.scalar("pfUsefulLate", "demand reads merged with in-flight prefetches",
            pfUsefulLate);
    v.scalar("pfWriteHitTagged", "store hits on tagged blocks",
            pfWriteHitTagged);
    v.scalar("pfUselessInvalidated", "tagged blocks lost to invalidations",
            pfUselessInvalidated);
    v.scalar("pfUselessReplaced", "tagged blocks lost to replacement",
            pfUselessReplaced);
    v.scalar("pfAgedUnused",
            "tagged blocks aged out of the feedback ring unused",
            pfAgedUnused);
    v.scalar("pfUselessUnused", "tagged blocks never referenced",
            pfUselessUnused);
    v.scalar("pfDropInCache", "candidates already resident", pfDropInCache);
    v.scalar("pfDropPending", "candidates matching a pending transaction",
            pfDropPending);
    v.scalar("pfDropPageCross", "candidates crossing the trigger's page",
            pfDropPageCross);
    v.scalar("pfDropNoSlot", "candidates dropped for lack of an SLWB slot",
            pfDropNoSlot);
}

std::uint64_t
Slc::usefulPrefetches() const
{
    return pfUsefulTagged.value() + pfUsefulLate.value();
}

bool
Slc::tryAccept(const FlwbEntry &e)
{
    const Tick now = _eq.now();

    // The SLC tag array services one processor-side access per SRAM
    // cycle; the FLWB must hold its head while an access is in flight.
    if (now < _tagPort.freeAt())
        return false;

    const MachineConfig &cfg = _m.cfg();

    switch (e.kind) {
      case FlwbEntry::Kind::Lock:
        sendToHome(MsgType::LockReq, e.addr, 0, false);
        return true;
      case FlwbEntry::Kind::Unlock:
        sendToHome(MsgType::LockRel, e.addr, 0, false);
        return true;
      case FlwbEntry::Kind::BarrierArrive: {
        Message m;
        m.type = MsgType::BarrierArrive;
        m.src = _id;
        m.dst = cfg.homeOf(e.addr);
        m.requester = _id;
        m.addr = e.addr;
        m.aux = e.aux;
        _m.send(m);
        return true;
      }
      case FlwbEntry::Kind::ReadMiss:
      case FlwbEntry::Kind::Write: {
        // Admission: the access needs a free SLWB slot unless it hits in
        // the cache or merges with a pending transaction for its block.
        // The cheap slot test goes first: the two probes matter only
        // when the SLWB is full.
        if (!slwbHasRoom(true)) {
            Addr blk = cfg.blockAddr(e.addr);
            if (!_array.find(blk) && !findMshr(blk))
                return false;
        }
        Tick start = _tagPort.claim(now, cfg.slcAccessLat);
        _eq.schedule(start + cfg.slcAccessLat,
                e.kind == FlwbEntry::Kind::ReadMiss ? EventKind::SlcRead
                                                    : EventKind::SlcWrite,
                _id, e.addr, e.pc);
        return true;
      }
    }
    psim_panic("bad FLWB entry kind");
}

void
Slc::classifyMiss(Addr blk_addr)
{
    const Gone *gone = _history.find(blk_addr);
    if (!gone)
        ++missesCold;
    else if (*gone == Gone::Invalidated)
        ++missesCoherence;
    else
        ++missesReplacement;
}

void
Slc::processRead(Addr addr, Pc pc)
{
    const MachineConfig &cfg = _m.cfg();
    const Tick now = _eq.now();
    Addr blk_addr = cfg.blockAddr(addr);
    ++demandReads;

    CacheBlk *blk = _array.find(blk_addr);
    bool hit = blk != nullptr;
    bool tagged = false;

    if (_trace) {
        TraceRecord rec;
        rec.tick = now;
        rec.pc = pc;
        rec.addr = addr;
        rec.node = _id;
        rec.kind = TraceRecord::Kind::Read;
        rec.hit = hit;
        _trace->append(rec);
    }

    if (hit) {
        if (blk->prefetched) {
            // Demand hit on a prefetched block: the prefetch was useful.
            // Clear the tag and let the prefetcher run ahead.
            blk->prefetched = false;
            tagged = true;
            ++pfUsefulTagged;
            reportOutcome(blk, blk_addr, true);
            noteFate(blk_addr, audit::Fate::UsefulTagged,
                    audit::Event::TaggedReadHit, now);
        }
        _eq.schedule(now + cfg.slcToCpuLat, EventKind::CpuReadDone, _id,
                addr);
    } else {
        if (Mshr *e = findMshr(blk_addr)) {
            // The block is already on its way; the read rides the
            // pending transaction and issues no request of its own, so
            // it does not count as a read miss (its residual wait shows
            // up in the read stall time instead).
            switch (e->kind) {
              case Mshr::Kind::Prefetch:
                ++pfUsefulLate;
                _prefetcher->notePrefetchOutcome(true, true, blk_addr);
                e->demandWaiting = true;
                e->demandAddr = addr;
                noteFate(blk_addr, audit::Fate::UsefulLate,
                        audit::Event::DemandMerge, now);
                break;
              case Mshr::Kind::Write:
                e->demandWaiting = true;
                e->demandAddr = addr;
                break;
              case Mshr::Kind::Read:
                psim_panic("two demand reads in flight on node %u", _id);
            }
        } else {
            ++demandReadMisses;
            if (_chrome)
                _chrome->demandMissStart(_id, blk_addr, now);
            if (_characterizer)
                _characterizer->observeMiss(pc, addr);
            classifyMiss(blk_addr);
            Mshr fresh;
            fresh.kind = Mshr::Kind::Read;
            fresh.pc = pc;
            fresh.demandAddr = addr;
            fresh.demandWaiting = true;
            _mshrs[blk_addr] = fresh;
            ++_slwbOcc;
            if (_audit) {
                _audit->checkSlwb(slwbOccupancy(), _slwbCap, false,
                        "demand read allocation");
            }
            sendToHome(MsgType::ReadReq, blk_addr, pc, false);
        }
    }

    // Train the prefetcher on every read presented to the SLC and act
    // on its candidates.
    _candidateBuf.clear();
    ReadObservation obs;
    obs.pc = pc;
    obs.addr = addr;
    obs.hit = hit;
    obs.taggedHit = tagged;
    if (_wantContent && hit) {
        // A valid copy pins the block's coherence epoch: no writer can
        // be granted ownership before our InvAck, so reading the
        // functional words here is race-free and deterministic.
        _m.store().read(blk_addr, _contentBuf.data(),
                        cfg.blockSize);
        obs.content = _contentBuf.data();
        obs.contentLen = cfg.blockSize;
    }
    _prefetcher->observeRead(obs, _candidateBuf);
    if (!_candidateBuf.empty())
        maybePrefetch(addr, pc, _candidateBuf);
}

void
Slc::processWrite(Addr addr, Pc pc)
{
    const MachineConfig &cfg = _m.cfg();
    const Tick now = _eq.now();
    Addr blk_addr = cfg.blockAddr(addr);
    ++writeRequests;

    CacheBlk *blk = _array.find(blk_addr);
    if (_trace) {
        TraceRecord rec;
        rec.tick = now;
        rec.pc = pc;
        rec.addr = addr;
        rec.node = _id;
        rec.kind = TraceRecord::Kind::Write;
        rec.hit = blk != nullptr;
        _trace->append(rec);
    }
    if (blk) {
        if (blk->prefetched) {
            blk->prefetched = false;
            ++pfWriteHitTagged;
            reportOutcome(blk, blk_addr, true);
            noteFate(blk_addr, audit::Fate::WriteHit,
                    audit::Event::TaggedWriteHit, now);
        }
        if (blk->state == CohState::Modified) {
            blk->written = true;
            _cpu.storePerformed();
            return;
        }
        // Shared: needs ownership.
        psim_assert(blk->state == CohState::Shared, "bad state on write");
        if (Mshr *e = findMshr(blk_addr)) {
            psim_assert(e->kind == Mshr::Kind::Write,
                    "resident block with non-write transaction");
            ++e->pendingStores;
            return;
        }
        ++upgrades;
        Mshr e;
        e.kind = Mshr::Kind::Write;
        e.pc = pc;
        e.upgrade = true;
        e.pendingStores = 1;
        _mshrs[blk_addr] = e;
        sendToHome(MsgType::UpgradeReq, blk_addr, pc, false);
        return;
    }

    if (Mshr *e = findMshr(blk_addr)) {
        if (e->kind == Mshr::Kind::Write) {
            ++e->pendingStores;
        } else {
            // A read or prefetch is in flight; the store completes after
            // the fill by upgrading the block.
            ++e->deferredStores;
        }
        return;
    }

    ++writeMisses;
    Mshr e;
    e.kind = Mshr::Kind::Write;
    e.pc = pc;
    e.upgrade = false;
    e.pendingStores = 1;
    _mshrs[blk_addr] = e;
    ++_slwbOcc;
    if (_audit) {
        _audit->checkSlwb(slwbOccupancy(), _slwbCap, false,
                "write-miss allocation");
    }
    sendToHome(MsgType::ReadExReq, blk_addr, pc, false);
}

void
Slc::maybePrefetch(Addr trigger_addr, Pc pc,
                   const std::vector<Addr> &candidates)
{
    const MachineConfig &cfg = _m.cfg();
    Addr trigger_blk = cfg.blockAddr(trigger_addr);
    Addr trigger_page = cfg.pageAddr(trigger_addr);

    for (Addr cand : candidates) {
        Addr blk = cfg.blockAddr(cand);
        if (blk == trigger_blk)
            continue;
        if (cfg.pageAddr(cand) != trigger_page) {
            // Never prefetch across a page boundary (Section 2).
            ++pfDropPageCross;
            continue;
        }
        if (_array.find(blk)) {
            ++pfDropInCache;
            continue;
        }
        if (findMshr(blk)) {
            ++pfDropPending;
            continue;
        }
        if (!slwbHasRoom(false)) {
            // The reserve rule: keep the last free slot for demand.
            ++pfDropNoSlot;
            continue;
        }
        Mshr e;
        e.kind = Mshr::Kind::Prefetch;
        e.pc = pc;
        _mshrs[blk] = e;
        ++_slwbOcc;
        ++pfIssued;
        if (_m.commitSink()) {
            check::PrefetchIssueRecord rec;
            rec.tick = _eq.now();
            rec.node = _id;
            rec.trigger = trigger_addr;
            rec.block = blk;
            _m.commitSink()->onPrefetchIssue(rec);
        }
        if (_chrome)
            _chrome->prefetchIssue(_id, blk, _eq.now());
        if (_audit) {
            _audit->onIssue(blk, pc, _eq.now());
            _audit->checkSlwb(slwbOccupancy(), _slwbCap, true,
                    "prefetch allocation");
        }
        // The aging ring exists to feed outcome information back to
        // schemes that consume it; maintaining it for the others would
        // only change their accounting, never their behaviour.
        if (_prefetcher->wantsOutcomeFeedback())
            _recentPrefetches.push_back(blk);
        sendToHome(MsgType::ReadReq, blk, pc, true);
    }
    agePrefetches();
}

void
Slc::reportOutcome(CacheBlk *blk, Addr blk_addr, bool useful)
{
    if (blk->outcomeReported)
        return;
    blk->outcomeReported = true;
    _prefetcher->notePrefetchOutcome(useful, false, blk_addr);
}

void
Slc::noteFate(Addr blk_addr, audit::Fate fate, audit::Event ev, Tick now)
{
    if (_audit)
        _audit->onFate(blk_addr, fate, ev, now);
    if (_chrome)
        _chrome->prefetchFate(_id, blk_addr, fate, now);
}

void
Slc::agePrefetches()
{
    // Bounded-delay negative feedback: once a prefetched block is 64
    // issues old and still untouched, it is counted useless and the
    // prefetcher told so adaptive schemes can throttle. Clearing the
    // tag seals the verdict -- a later demand access is an ordinary
    // hit, not a second (contradictory) outcome for the same prefetch.
    constexpr std::size_t kRingCap = 64;
    while (_recentPrefetches.size() > kRingCap) {
        Addr a = _recentPrefetches.front();
        _recentPrefetches.pop_front();
        CacheBlk *blk = _array.find(a);
        if (blk && blk->prefetched) {
            blk->prefetched = false;
            ++pfAgedUnused;
            reportOutcome(blk, a, false);
            noteFate(a, audit::Fate::AgedUnused,
                    audit::Event::AgedOut, _eq.now());
        }
    }
}

void
Slc::sendToHome(MsgType t, Addr blk_addr, Pc pc, bool prefetch)
{
    Message m;
    m.type = t;
    m.src = _id;
    m.dst = _m.cfg().homeOf(blk_addr);
    m.requester = _id;
    m.addr = blk_addr;
    m.pc = pc;
    m.prefetch = prefetch;
    _m.send(m);
}

void
Slc::invalidateBlock(CacheBlk *blk, Addr blk_addr, bool replacement)
{
    if (blk->prefetched) {
        if (replacement)
            ++pfUselessReplaced;
        else
            ++pfUselessInvalidated;
        reportOutcome(blk, blk_addr, false);
        if (replacement) {
            noteFate(blk_addr, audit::Fate::Replaced,
                    audit::Event::Replaced, _eq.now());
        } else {
            noteFate(blk_addr, audit::Fate::Invalidated,
                    audit::Event::Invalidated, _eq.now());
        }
    }
    _history[blk_addr] = replacement ? Gone::Replaced : Gone::Invalidated;
    _flc.invalidate(blk_addr);
    _array.invalidate(blk, blk_addr);
}

CacheBlk *
Slc::makeRoom(Addr blk_addr)
{
    CacheBlk *frame = _array.findVictim(blk_addr);
    // An infinite array's frame is always the block's own.
    if (!frame->valid() || _array.infinite())
        return frame;
    const Addr victim = _array.addrOf(frame);
    if (victim == blk_addr)
        return frame;
    // Only a finite array evicts, and its frames never move, so the
    // frame stays valid across the invalidation.
    if (frame->state == CohState::Modified) {
        ++writebacks;
        _wbPending[victim] = 1;
        sendToHome(MsgType::WritebackReq, victim, 0, false);
    }
    invalidateBlock(frame, victim, true);
    return frame;
}

void
Slc::completeStores(Mshr &e)
{
    for (unsigned i = 0; i < e.pendingStores; ++i)
        _cpu.storePerformed();
    e.pendingStores = 0;
}

void
Slc::handleFill(const Message &m, bool exclusive)
{
    const MachineConfig &cfg = _m.cfg();
    const Tick now = _eq.now();
    Addr blk_addr = m.addr;

    Mshr *e = findMshr(blk_addr);
    if (!e) {
        if (_audit)
            _audit->fail(blk_addr, "unsolicited fill");
        psim_panic("node %u: unsolicited fill for %llx", _id,
                (unsigned long long)blk_addr);
    }
    CacheBlk *frame = makeRoom(blk_addr);
    if (frame->valid()) {
        if (_audit)
            _audit->fail(blk_addr, "fill for a resident block");
        psim_panic("node %u: fill for resident block %llx", _id,
                (unsigned long long)blk_addr);
    }
    _array.fill(frame, blk_addr, exclusive ? CohState::Modified
                                           : CohState::Shared);
    _history.erase(blk_addr);
    if (_audit)
        _audit->onEvent(blk_addr, audit::Event::Fill, now);
    if (_chrome) {
        if (e->kind == Mshr::Kind::Read)
            _chrome->demandMissEnd(_id, blk_addr, now);
        else if (e->kind == Mshr::Kind::Prefetch)
            _chrome->prefetchFill(_id, blk_addr, now);
    }

    bool is_pure_prefetch =
            e->kind == Mshr::Kind::Prefetch && !e->demandWaiting;
    if (is_pure_prefetch) {
        if (_audit)
            _audit->checkTaggedFill(blk_addr);
        frame->prefetched = true;
    }

    // Content-directed schemes see every read/prefetch fill as a
    // synthesized observation (the fill data is the whole point).
    // Captured before the branches below erase the MSHR; skipped when
    // an invalidation passed the transaction in flight -- our InvAck
    // may already have admitted a remote writer, so the words are not
    // coherence-stable (see Mshr::invFlight).
    bool fill_observe = _wantContent && !e->invFlight &&
                        e->kind != Mshr::Kind::Write;
    Pc fill_pc = e->pc;
    Addr fill_addr = e->demandWaiting ? e->demandAddr : blk_addr;

    if (e->demandWaiting) {
        _eq.schedule(now + cfg.slcToCpuLat, EventKind::CpuReadDone, _id,
                e->demandAddr);
    }

    if (e->kind == Mshr::Kind::Write) {
        psim_assert(exclusive, "write transaction filled shared");
        frame->written = true;
        // completeStores() resumes the processor; use no MSHR field
        // after it but the erase by key.
        bool upgrade = e->upgrade;
        completeStores(*e);
        // An upgrade serviced as read-exclusive never held a data slot.
        if (!upgrade)
            --_slwbOcc;
        _mshrs.erase(blk_addr);
        return;
    }

    if (e->deferredStores > 0) {
        // Stores arrived while the read/prefetch was in flight; they
        // retire by upgrading the freshly filled block.
        if (exclusive) {
            if (is_pure_prefetch) {
                // Ownership arrived with the prefetched data (e.g. a
                // migratory grant), so the deferred store consumes the
                // prefetch right here -- same accounting as the
                // shared-fill path below, which used to be skipped,
                // leaving the block tagged but its fate unrecorded.
                ++pfWriteHitTagged;
                reportOutcome(frame, blk_addr, true);
                noteFate(blk_addr, audit::Fate::WriteHit,
                        audit::Event::DeferredStoreHit, now);
                frame->prefetched = false;
            }
            frame->state = CohState::Modified;
            frame->written = true;
            completeStores(*e);
            --_slwbOcc;
            _mshrs.erase(blk_addr);
            return;
        }
        if (is_pure_prefetch) {
            // The deferred store is what consumes this prefetch: its
            // data arrived, only ownership is still missing. Account
            // it like a store hit on a tagged block.
            ++pfWriteHitTagged;
            reportOutcome(frame, blk_addr, true);
            noteFate(blk_addr, audit::Fate::WriteHit,
                    audit::Event::DeferredStoreHit, now);
        }
        frame->prefetched = false;
        ++upgrades;
        // The data slot frees here: the entry lives on as an upgrade,
        // which buffers no data.
        --_slwbOcc;
        e->kind = Mshr::Kind::Write;
        e->upgrade = true;
        e->pendingStores = e->deferredStores;
        e->deferredStores = 0;
        e->demandWaiting = false;
        sendToHome(MsgType::UpgradeReq, blk_addr, e->pc, false);
        return;
    }

    --_slwbOcc;
    _mshrs.erase(blk_addr);

    if (fill_observe) {
        _m.store().read(blk_addr, _contentBuf.data(), cfg.blockSize);
        _candidateBuf.clear();
        ReadObservation obs;
        obs.pc = fill_pc;
        obs.addr = fill_addr;
        obs.fill = true;
        obs.prefetchFill = is_pure_prefetch;
        obs.content = _contentBuf.data();
        obs.contentLen = cfg.blockSize;
        _prefetcher->observeRead(obs, _candidateBuf);
        if (!_candidateBuf.empty())
            maybePrefetch(fill_addr, fill_pc, _candidateBuf);
    }
}

void
Slc::receive(const Message &m)
{
    switch (m.type) {
      case MsgType::DataReply:
        handleFill(m, false);
        return;
      case MsgType::DataExReply:
        handleFill(m, true);
        return;
      case MsgType::UpgradeAck: {
        Mshr *e = findMshr(m.addr);
        if (!e || e->kind != Mshr::Kind::Write || !e->upgrade) {
            if (_audit)
                _audit->fail(m.addr, "spurious upgrade ack");
            psim_panic("node %u: spurious upgrade ack", _id);
        }
        CacheBlk *blk = _array.find(m.addr);
        if (blk) {
            if (blk->state != CohState::Shared) {
                if (_audit)
                    _audit->fail(m.addr, "upgrade ack on non-shared copy");
                psim_panic("node %u: upgrade ack on non-shared copy", _id);
            }
            blk->state = CohState::Modified;
            blk->written = true;
        } else {
            // A finite SLC silently evicted the shared copy while the
            // upgrade was in flight. Upgrades are only granted from
            // the Clean directory state, so the home's memory copy is
            // valid and the block is reinstalled directly in Modified.
            CacheBlk *frame = makeRoom(m.addr);
            _array.fill(frame, m.addr, CohState::Modified);
            frame->written = true;
            _history.erase(m.addr);
        }
        if (e->demandWaiting) {
            // A read missed on the silently evicted copy and merged
            // with this upgrade; the ack carries ownership of valid
            // memory data, so the read completes now.
            _eq.schedule(_eq.now() + _m.cfg().slcToCpuLat,
                    EventKind::CpuReadDone, _id, e->demandAddr);
        }
        completeStores(*e);
        _mshrs.erase(m.addr);
        return;
      }
      case MsgType::FetchReq:
      case MsgType::FetchInvReq: {
        CacheBlk *blk = _array.find(m.addr);
        if (!blk) {
            // Our writeback passed this fetch in flight; the home will
            // use the writeback as the reply.
            if (!_wbPending.contains(m.addr)) {
                if (_audit) {
                    _audit->fail(m.addr,
                            "fetch for a block neither resident nor "
                            "being written back");
                }
                psim_panic("node %u: fetch for absent block %llx", _id,
                        (unsigned long long)m.addr);
            }
            return;
        }
        if (blk->state != CohState::Modified) {
            if (_audit)
                _audit->fail(m.addr, "fetch for a non-owned block");
            psim_panic("node %u: fetch for non-owned block", _id);
        }
        bool was_written = blk->written;
        if (m.type == MsgType::FetchReq) {
            blk->state = CohState::Shared;
            blk->written = false;
        } else {
            invalidateBlock(blk, m.addr, false);
        }
        Message reply;
        reply.type = MsgType::FetchReply;
        reply.src = _id;
        reply.dst = m.src;
        reply.requester = m.requester;
        reply.addr = m.addr;
        // Tell the home whether this copy was actually stored to --
        // the migratory-sharing detector demotes on read-only handoffs.
        reply.aux = was_written ? 1 : 0;
        _m.send(reply);
        return;
      }
      case MsgType::InvReq: {
        ++invalidationsRecv;
        if (Mshr *e = findMshr(m.addr))
            e->invFlight = true;
        if (CacheBlk *blk = _array.find(m.addr))
            invalidateBlock(blk, m.addr, false);
        Message ack;
        ack.type = MsgType::InvAck;
        ack.src = _id;
        ack.dst = m.src;
        ack.requester = m.requester;
        ack.addr = m.addr;
        _m.send(ack);
        return;
      }
      case MsgType::WritebackAck:
        _wbPending.erase(m.addr);
        return;
      default:
        psim_panic("node %u SLC: unexpected message %s", _id,
                toString(m.type));
    }
}

void
Slc::finalizeStats()
{
    // Fates go out in address order, so a trace does not depend on
    // the array's layout.
    std::vector<Addr> unused;
    _array.forEach([&unused](Addr blk_addr, const CacheBlk &blk) {
        if (blk.prefetched)
            unused.push_back(blk_addr);
    });
    std::sort(unused.begin(), unused.end());
    pfUselessUnused += unused.size();
    const Tick now = _eq.now();
    for (Addr blk_addr : unused) {
        noteFate(blk_addr, audit::Fate::ResidentAtEnd,
                audit::Event::EndOfRun, now);
    }
    if (_audit)
        _audit->finalize(*this);
}

} // namespace psim
