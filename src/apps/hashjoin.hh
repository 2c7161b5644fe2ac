/**
 * @file
 * Hash-join server workload (build + probe over two relations).
 *
 * The build relation R is a shared array of 16-byte tuples; the probe
 * relation S is materialized per thread from the seeded Zipfian
 * request stream (src/apps/reqgen.hh), so probe keys are hot-skewed
 * the way OLTP joins are. Build: every thread scans all of R
 * sequentially and inserts exactly the tuples that hash into its own
 * bucket range of a shared open-addressed table (probing wraps within
 * the range, so writes never leave the owner's buckets -- DRF without
 * locks). Probe: each thread streams its own S chunk sequentially and
 * probes the now read-only table, whose buckets mostly live in other
 * nodes' memory -- scattered remote reads against a sequential local
 * stream, with open-loop think gaps between requests.
 *
 * Verification rebuilds the identical table natively (same scan order
 * per range, hence identical slot placement) and compares every table
 * slot and each thread's match-count/payload-sum result.
 */

#ifndef PSIM_APPS_HASHJOIN_HH
#define PSIM_APPS_HASHJOIN_HH

#include <cstdint>
#include <vector>

#include "apps/reqgen.hh"
#include "apps/workload.hh"

namespace psim::apps
{

class HashJoinWorkload : public Workload
{
  public:
    explicit HashJoinWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

  private:
    Addr tupleAddr(Addr rel, std::uint64_t i) const;
    Addr slotAddr(std::uint64_t i) const;
    std::uint64_t rangeLo(unsigned t, unsigned nproc) const;

    std::uint64_t _nR = 0;    ///< build-relation tuples
    std::uint64_t _perS = 0;  ///< probe tuples per thread
    std::uint64_t _htCap = 0; ///< hash-table slots (power of two)
    std::uint64_t _nkeys = 0; ///< probe key space (power of two)
    std::uint64_t _seed = 0;
    Tick _interArrival = 0;
    double _theta = 0.99;

    Addr _relR = 0;
    Addr _relS = 0;
    Addr _table = 0;
    Addr _results = 0;
    Addr _bar = 0;

    std::unique_ptr<ZipfSampler> _zipf;
    std::vector<std::uint64_t> _refTableKey;
    std::vector<std::uint64_t> _refTablePay;
    std::vector<std::uint64_t> _refCount; ///< per-thread match count
    std::vector<std::uint64_t> _refSum;   ///< per-thread payload sum
};

} // namespace psim::apps

#endif // PSIM_APPS_HASHJOIN_HH
