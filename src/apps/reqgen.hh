/**
 * @file
 * Seeded open-loop request generator for the server workload suite.
 *
 * The four server workloads (kvstore, hashjoin, bfs, logappend) are
 * driven by streams of requests with Zipfian key popularity -- the
 * "millions of users" front end. Each request is a *pure function* of
 * (spec seed, thread id, request index): the generator holds no
 * mutable state, draws nothing from the machine (no clocks, no
 * addresses, no iteration-order-dependent containers), and therefore
 * produces byte-identical streams at every --jobs count.
 * at() enforces that contract with a recompute-and-compare assertion
 * in the generator itself, not just in the tests.
 *
 * Arrival is open-loop in the simulated sense available to a blocking
 * coroutine: the gap *before* each request is drawn from the stream
 * (uniform integer around ServerConfig::interArrival, no libm) and
 * modeled with ThreadCtx::think, independent of how long the previous
 * request took to serve.
 */

#ifndef PSIM_APPS_REQGEN_HH
#define PSIM_APPS_REQGEN_HH

#include <cstdint>

#include "sim/types.hh"

namespace psim::apps
{

/**
 * Zipfian sampler over ranks [0, n) with skew theta in [0, 1)
 * (theta = 0 is uniform; YCSB's default skew is 0.99). Uses the
 * Gray et al. inverse-CDF approximation: O(n) zeta precompute at
 * construction, O(1) per sample. A sampler is itself a pure function
 * of (n, theta), so sharing one across threads is safe.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta);

    /** The rank for uniform @p u in [0, 1); rank 0 is the hottest. */
    std::uint64_t sample(double u) const;

    std::uint64_t n() const { return _n; }
    double theta() const { return _theta; }

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t _n;
    double _theta;
    double _zetan;
    double _eta;
    double _alpha;
};

/** One generated request. Workloads interpret op as fits them. */
struct Request
{
    enum class Op : std::uint8_t
    {
        Read,  ///< GET / probe / traversal
        Write, ///< PUT / append
    };

    Op op = Op::Read;
    /** Key in [0, keys): a Zipf rank scrambled over the key space. */
    std::uint64_t key = 0;
    /** Open-loop inter-arrival gap to think() before issuing. */
    Tick think = 0;

    bool
    operator==(const Request &o) const
    {
        return op == o.op && key == o.key && think == o.think;
    }
};

struct ReqGenParams
{
    std::uint64_t seed = 0; ///< MachineConfig::seed (the spec seed)
    unsigned thread = 0;    ///< requesting thread id
    /** Key-space size; must be a power of two (rank scrambling). */
    std::uint64_t keys = 1;
    double theta = 0.99;      ///< Zipf skew
    double writeFraction = 0; ///< P(op == Write)
    Tick interArrival = 0;    ///< mean think gap; 0 disables gaps
};

class RequestGen
{
  public:
    /** @p zipf must outlive the generator and match params.keys. */
    RequestGen(const ReqGenParams &params, const ZipfSampler &zipf);

    /**
     * Request number @p r of this thread's stream. Pure: depends on
     * (seed, thread, r) and the immutable params only; asserts its own
     * purity by recomputing (see file comment).
     */
    Request at(std::uint64_t r) const;

    const ReqGenParams &params() const { return _p; }

  private:
    Request compute(std::uint64_t r) const;

    ReqGenParams _p;
    const ZipfSampler &_zipf;
};

/**
 * Bijective scramble of @p rank over [0, keys): multiplication by an
 * odd constant modulo the power-of-two key-space size. Spreads the
 * hot head of the Zipf distribution across the key space so popular
 * keys do not share cache blocks by construction.
 */
std::uint64_t scrambleRank(std::uint64_t rank, std::uint64_t keys);

} // namespace psim::apps

#endif // PSIM_APPS_REQGEN_HH
