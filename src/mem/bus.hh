/**
 * @file
 * Local split-transaction bus (paper: 256-bit wide, 33 MHz).
 *
 * Every message crossing between a node's SLC, memory controller and
 * network interface claims the bus for an arbitration cycle plus one
 * transfer phase. The bus is 256 bits wide, so a 32-byte block moves in
 * a single data phase; requests and replies therefore occupy the same
 * number of cycles and the interesting contention effect is queueing.
 */

#ifndef PSIM_MEM_BUS_HH
#define PSIM_MEM_BUS_HH

#include "sim/config.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace psim
{

class Bus
{
  public:
    explicit Bus(const MachineConfig &cfg) : _cfg(cfg) {}

    /**
     * Move one message, presented at @p now, across the bus. @p data
     * selects a data-phase transaction (for traffic accounting).
     * @return the tick at which the transfer completes.
     */
    Tick
    transfer(Tick now, bool data)
    {
        // Arbitration is pipelined with the previous transfer, so the
        // bus is occupied for the transfer phase only, but each message
        // still experiences arbitration + transfer latency.
        Tick occ = _cfg.busPhaseCycles * _cfg.busCycle;
        Tick arb = _cfg.busCycle;
        Tick start = _res.claim(now, occ);
        ++transactions;
        if (data)
            ++dataTransactions;
        busyTicks += occ;
        waitTicks += start - now;
        return start + arb + occ;
    }

    stats::Scalar transactions;
    stats::Scalar dataTransactions;
    /** Total ticks the bus was occupied. */
    stats::Scalar busyTicks;
    /** Total ticks transfers spent queued for the bus. */
    stats::Scalar waitTicks;

    /** Hand this bus's statistics to @p v. */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("transactions", "bus transactions", transactions);
        v.scalar("dataTransactions", "data-carrying transactions",
                dataTransactions);
        v.scalar("busyTicks", "ticks the bus was occupied", busyTicks);
        v.scalar("waitTicks", "ticks requests queued for the bus", waitTicks);
    }

  private:
    const MachineConfig &_cfg;
    Resource _res;
};

} // namespace psim

#endif // PSIM_MEM_BUS_HH
