/**
 * @file
 * Processor model (paper Section 2).
 *
 * A blocking-load processor: it stalls on read misses until data
 * returns, but writes are buffered (FLWB) and retire in the background,
 * as release consistency permits. Synchronization operations implement
 * the RC rules: an acquire (lock) stalls until granted; a release
 * (unlock, barrier arrival) first waits until every prior store by this
 * processor has been globally performed.
 *
 * The simulated program is a coroutine (Task); the Cpu resumes it when
 * each access completes, preserving the exact timing-driven interleaving
 * of references that a program-driven simulator provides.
 */

#ifndef PSIM_SYS_CPU_HH
#define PSIM_SYS_CPU_HH

#include <coroutine>
#include <optional>

#include "mem/flc.hh"
#include "mem/write_buffer.hh"
#include "sim/stats.hh"
#include "sys/task.hh"

namespace psim
{

class Machine;

class Cpu
{
  public:
    Cpu(Machine &m, NodeId id, Flc &flc, Flwb &flwb);

    NodeId id() const { return _id; }
    Machine &machine() { return _m; }

    /** Attach the simulated thread. */
    void bind(Task t);

    /** Schedule the first resume of the thread at the current tick. */
    void start();

    /** Resume the waiting thread (a CpuResume event fired). */
    void resume();

    bool finished() const { return _finished; }

    // ---- called by the awaitables in apps/ctx.hh ----

    void issueLoad(Addr addr, Pc pc, std::coroutine_handle<> h);
    void issueStore(Addr addr, Pc pc, std::coroutine_handle<> h);
    void issueLock(Addr addr, std::coroutine_handle<> h);
    void issueUnlock(Addr addr, std::coroutine_handle<> h);
    void issueBarrier(Addr addr, std::uint32_t participants,
                      std::coroutine_handle<> h);
    void think(Tick cycles, std::coroutine_handle<> h);

    // ---- called by the memory hierarchy ----

    /**
     * The FLC probe of a load at @p addr / @p pc missed one FLC access
     * ago; the request now enters the FLWB.
     */
    void flcMiss(Addr addr, Pc pc);

    /** A demand read completed (data available to the processor). */
    void readComplete(Addr addr);

    /** One buffered store became globally performed. */
    void storePerformed();

    /** The queue-based lock at memory granted our LockReq. */
    void lockGranted();

    /** All participants arrived; barrier released. */
    void barrierDone();

    /** The FLWB drained one entry; retry a stalled enqueue. */
    void flwbSpace();

    /** Stores issued but not yet globally performed. */
    unsigned outstandingStores() const { return _outstandingStores; }

    // ---- statistics (paper metrics) ----

    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar locks;
    stats::Scalar barriers;
    stats::Scalar thinkTicks;
    /** Ticks stalled on read accesses beyond the 1-pclock FLC access. */
    stats::Scalar readStall;
    /** Ticks stalled acquiring locks. */
    stats::Scalar lockStall;
    /** Ticks stalled at barriers (incl. waiting for write completion). */
    stats::Scalar barrierStall;
    /** Ticks stalled because the FLWB was full. */
    stats::Scalar writeStall;
    /** Tick at which the thread finished. */
    stats::Scalar finishTick;

    /** Register this processor's statistics into @p g. */
    void
    registerStats(stats::Group &g)
    {
        g.addScalar("loads", &loads, "loads issued");
        g.addScalar("stores", &stores, "stores issued");
        g.addScalar("locks", &locks, "lock acquires");
        g.addScalar("barriers", &barriers, "barrier episodes");
        g.addScalar("thinkTicks", &thinkTicks, "busy (non-memory) ticks");
        g.addScalar("readStall", &readStall, "read stall ticks");
        g.addScalar("lockStall", &lockStall, "lock stall ticks");
        g.addScalar("barrierStall", &barrierStall, "barrier stall ticks");
        g.addScalar("writeStall", &writeStall, "FLWB-full stall ticks");
        g.addScalar("finishTick", &finishTick, "completion tick");
    }

  private:
    enum class Pending : std::uint8_t
    {
        None,
        Read,    ///< waiting for readComplete
        Lock,    ///< waiting for lockGranted
        Barrier, ///< waiting for barrierDone
        Push,    ///< waiting for FLWB space to push _pendingEntry
        Drain,   ///< waiting for outstanding stores to drain (release)
        Store,   ///< sequential consistency: store must perform first
    };

    /** Resume the coroutine at an absolute tick. */
    void resumeAt(Tick when);

    /** Resume immediately (the access completed now). */
    void resumeNow();

    /**
     * Enqueue @p e, stalling on a full FLWB. The processor enters
     * state @p after once the entry is in the buffer.
     */
    void pushOrStall(const FlwbEntry &e, Pending after);

    /** The release half of RC: continue once stores have completed. */
    void whenDrained(const FlwbEntry &release_entry, Pending after);

    /** Act on a freshly pushed entry according to _after. */
    void pushed();

    Machine &_m;
    /** The machine's event queue. */
    EventQueue &_eq;
    NodeId _id;
    Flc &_flc;
    Flwb &_flwb;

    Task _task;
    std::coroutine_handle<> _waiting = nullptr;
    bool _finished = false;

    Pending _pending = Pending::None;
    Pending _after = Pending::None; ///< state entered once a push succeeds
    std::optional<FlwbEntry> _pendingEntry;
    Tick _opStart = 0;       ///< issue tick of the blocking op
    unsigned _outstandingStores = 0;
};

} // namespace psim

#endif // PSIM_SYS_CPU_HH
