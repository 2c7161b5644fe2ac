/**
 * @file
 * Log-structured append server workload.
 *
 * Every thread owns a log segment and appends one 32-byte record per
 * request from its seeded Zipfian stream (src/apps/reqgen.hh):
 * perfectly sequential writes -- the pattern sequential prefetching
 * was built for -- interleaved with scattered upserts into a
 * per-thread hash index mapping key to last sequence number. Every
 * kGroupCommit appends the thread takes a global commit lock and
 * bumps a shared commit counter: a migratory block bouncing between
 * writers. After a barrier, each thread replays its neighbour's
 * segment sequentially, recomputing record checksums (cross-node
 * streaming reads), and publishes {valid count, payload sum, final
 * commit count} to its result slot.
 *
 * DRF by construction: appends and index writes are owner-only, the
 * commit counter is lock-protected and commutative (integer
 * increments), and the replay reads are barrier-separated from the
 * writes they observe. Verification replays the identical streams on
 * a native model and compares segments, indexes, and results exactly.
 */

#ifndef PSIM_APPS_LOGAPPEND_HH
#define PSIM_APPS_LOGAPPEND_HH

#include <cstdint>
#include <vector>

#include "apps/reqgen.hh"
#include "apps/workload.hh"

namespace psim::apps
{

class LogAppendWorkload : public Workload
{
  public:
    explicit LogAppendWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

  private:
    Addr recAddr(unsigned t, std::uint64_t r) const;
    Addr idxAddr(unsigned t, std::uint64_t s) const;

    std::uint64_t _perThread = 0; ///< appends per thread
    std::uint64_t _idxCap = 0;    ///< index slots (power of two)
    std::uint64_t _nkeys = 0;     ///< key space (power of two)
    std::uint64_t _seed = 0;
    Tick _interArrival = 0;
    double _theta = 0.99;

    Addr _log = 0;     ///< per-thread record segments
    Addr _index = 0;   ///< per-thread hash indexes
    Addr _commit = 0;  ///< shared commit counter (u64)
    Addr _commitLock = 0;
    Addr _results = 0;
    Addr _bar = 0;

    std::unique_ptr<ZipfSampler> _zipf;
    std::vector<std::uint64_t> _refIdxKey; ///< nproc * idxCap
    std::vector<std::uint64_t> _refIdxSeq;
    std::vector<std::uint64_t> _refValid;  ///< per-thread replay count
    std::vector<std::uint64_t> _refPaySum;
    std::uint64_t _refCommit = 0;
};

} // namespace psim::apps

#endif // PSIM_APPS_LOGAPPEND_HH
