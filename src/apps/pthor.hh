/**
 * @file
 * PTHOR: parallel digital-circuit simulation (SPLASH PTHOR).
 *
 * A synchronous gate-level simulator over a randomly wired circuit:
 * each active element reads the outputs of its two (pseudo-randomly
 * chosen) fan-in elements and publishes a new output into a
 * double-buffered field. Fan-in reads chase pointers across the
 * element array -- no stride sequences and low spatial locality, which
 * is why neither prefetching scheme helps PTHOR in the paper. Event
 * hand-off between processors goes through per-processor work queues
 * protected by the memory-side queue locks.
 */

#ifndef PSIM_APPS_PTHOR_HH
#define PSIM_APPS_PTHOR_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class PthorWorkload : public Workload
{
  public:
    explicit PthorWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned elements() const { return _nelem; }

    static constexpr unsigned kRecordBytes = 64; ///< 2 blocks
    static constexpr unsigned kOutA = 0;   ///< output, even steps
    static constexpr unsigned kOutB = 8;   ///< output, odd steps
    static constexpr unsigned kState = 16;
    static constexpr unsigned kFanin0 = 24;
    static constexpr unsigned kFanin1 = 32;
    static constexpr unsigned kDelay = 40;

  private:
    Addr
    efield(unsigned e, unsigned off) const
    {
        return _elems + static_cast<Addr>(e) * kRecordBytes + off;
    }

    bool activeAt(unsigned e, unsigned step) const;

    unsigned _nelem = 0;
    unsigned _steps = 0;
    Addr _elems = 0;
    Addr _queues = 0;     ///< per-processor event counters
    Addr _queueLocks = 0; ///< one lock block per processor queue
    Addr _bar = 0;
    std::vector<double> _refOut;
    std::vector<double> _refState;
};

} // namespace psim::apps

#endif // PSIM_APPS_PTHOR_HH
