#include "sys/cpu.hh"

#include "sim/logging.hh"
#include "sys/machine.hh"

namespace psim
{

Cpu::Cpu(Machine &m, NodeId id, Flc &flc, Flwb &flwb)
    : _m(m), _eq(m.eq()), _id(id), _flc(flc), _flwb(flwb)
{
}

void
Cpu::bind(Task t)
{
    psim_assert(!_task.valid(), "cpu %u already has a thread", _id);
    _task = std::move(t);
}

void
Cpu::start()
{
    if (!_task.valid()) {
        _finished = true;
        return;
    }
    _waiting = _task.handle();
    resumeNow();
}

void
Cpu::resume()
{
    auto h = _waiting;
    _waiting = nullptr;
    _pending = Pending::None;
    h.resume();
    if (_task.done() && !_finished) {
        _finished = true;
        finishTick = static_cast<double>(_eq.now());
    }
}

void
Cpu::resumeAt(Tick when)
{
    psim_assert(_waiting, "cpu %u resume without a waiting thread", _id);
    _eq.schedule(when, EventKind::CpuResume, _id);
}

void
Cpu::resumeNow()
{
    resumeAt(_eq.now());
}

void
Cpu::pushOrStall(const FlwbEntry &e, Pending after)
{
    _pendingEntry = e;
    _after = after;
    if (_flwb.full()) {
        _pending = Pending::Push;
        return;
    }
    _flwb.push(e);
    pushed();
}

void
Cpu::pushed()
{
    const Tick now = _eq.now();
    const FlwbEntry &e = *_pendingEntry;
    switch (_after) {
      case Pending::Read:
        _pending = Pending::Read;
        break;
      case Pending::Lock:
        _pending = Pending::Lock;
        break;
      case Pending::Barrier:
        _pending = Pending::Barrier;
        break;
      case Pending::None:
        // Stores and unlocks retire into the buffer and the processor
        // moves on after the 1-pclock FLC/issue cost.
        if (e.kind == FlwbEntry::Kind::Write) {
            ++_outstandingStores;
            if (_m.cfg().sequentialConsistency) {
                // SC: the processor stalls until the store is
                // globally performed.
                _pending = Pending::Store;
                break;
            }
            writeStall += static_cast<double>(now - _opStart);
        } else {
            lockStall += static_cast<double>(now - _opStart);
        }
        resumeAt(now + _m.cfg().flcReadLat);
        break;
      default:
        psim_panic("bad push continuation");
    }
}

void
Cpu::whenDrained(const FlwbEntry &release_entry, Pending after)
{
    if (_outstandingStores == 0) {
        pushOrStall(release_entry, after);
    } else {
        _pendingEntry = release_entry;
        _after = after;
        _pending = Pending::Drain;
    }
}

void
Cpu::issueLoad(Addr addr, Pc pc, std::coroutine_handle<> h)
{
    ++loads;
    _waiting = h;
    _opStart = _eq.now();
    if (_flc.probeRead(addr, _opStart)) {
        resumeAt(_opStart + _m.cfg().flcReadLat);
        return;
    }
    // The miss is known after the 1-pclock FLC probe; only then does
    // the request enter the FLWB.
    _eq.schedule(_opStart + _m.cfg().flcReadLat, EventKind::CpuFlcMiss, _id,
            addr, pc);
}

void
Cpu::flcMiss(Addr addr, Pc pc)
{
    FlwbEntry e;
    e.kind = FlwbEntry::Kind::ReadMiss;
    e.addr = addr;
    e.pc = pc;
    pushOrStall(e, Pending::Read);
}

void
Cpu::issueStore(Addr addr, Pc pc, std::coroutine_handle<> h)
{
    ++stores;
    _waiting = h;
    _opStart = _eq.now();
    _flc.probeWrite(addr, _opStart);
    FlwbEntry e;
    e.kind = FlwbEntry::Kind::Write;
    e.addr = addr;
    e.pc = pc;
    pushOrStall(e, Pending::None);
}

void
Cpu::issueLock(Addr addr, std::coroutine_handle<> h)
{
    ++locks;
    _waiting = h;
    _opStart = _eq.now();
    FlwbEntry e;
    e.kind = FlwbEntry::Kind::Lock;
    e.addr = addr;
    pushOrStall(e, Pending::Lock);
}

void
Cpu::issueUnlock(Addr addr, std::coroutine_handle<> h)
{
    _waiting = h;
    _opStart = _eq.now();
    FlwbEntry e;
    e.kind = FlwbEntry::Kind::Unlock;
    e.addr = addr;
    whenDrained(e, Pending::None);
}

void
Cpu::issueBarrier(Addr addr, std::uint32_t participants,
                  std::coroutine_handle<> h)
{
    ++barriers;
    _waiting = h;
    _opStart = _eq.now();
    FlwbEntry e;
    e.kind = FlwbEntry::Kind::BarrierArrive;
    e.addr = addr;
    e.aux = participants;
    whenDrained(e, Pending::Barrier);
}

void
Cpu::think(Tick cycles, std::coroutine_handle<> h)
{
    _waiting = h;
    thinkTicks += static_cast<double>(cycles);
    resumeAt(_eq.now() + (cycles ? cycles : 1));
}

void
Cpu::readComplete(Addr addr)
{
    psim_assert(_pending == Pending::Read,
            "cpu %u spurious read completion", _id);
    const Tick now = _eq.now();
    // Fill the FLC only if the SLC still holds the block: an
    // invalidation may have raced the one-pclock data return, and
    // inclusion requires the fill to be dropped in that case (the
    // load still uses the returned data -- non-binding semantics).
    if (_m.node(_id).slc().stateOf(_m.cfg().blockAddr(addr)) !=
        CohState::Invalid) {
        _flc.fill(addr, now);
    }
    readStall += static_cast<double>(now - _opStart - _m.cfg().flcReadLat);
    resumeNow();
}

void
Cpu::storePerformed()
{
    psim_assert(_outstandingStores > 0, "cpu %u store underflow", _id);
    --_outstandingStores;
    if (_outstandingStores != 0)
        return;
    if (_pending == Pending::Drain) {
        pushOrStall(*_pendingEntry, _after);
    } else if (_pending == Pending::Store) {
        writeStall += static_cast<double>(
                _eq.now() - _opStart - _m.cfg().flcReadLat);
        resumeNow();
    }
}

void
Cpu::lockGranted()
{
    psim_assert(_pending == Pending::Lock,
            "cpu %u spurious lock grant", _id);
    lockStall += static_cast<double>(
            _eq.now() - _opStart - _m.cfg().flcReadLat);
    resumeNow();
}

void
Cpu::barrierDone()
{
    psim_assert(_pending == Pending::Barrier,
            "cpu %u spurious barrier release", _id);
    barrierStall += static_cast<double>(
            _eq.now() - _opStart - _m.cfg().flcReadLat);
    resumeNow();
}

void
Cpu::flwbSpace()
{
    if (_pending == Pending::Push && !_flwb.full()) {
        _flwb.push(*_pendingEntry);
        pushed();
    }
}

} // namespace psim
