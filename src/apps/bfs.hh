/**
 * @file
 * Graph BFS server workload over an immutable CSR adjacency.
 *
 * The graph is a directed power-law-ish web: every vertex has a ring
 * edge (connectivity) plus a fan of targets alternating between
 * Zipf-popular hubs and uniform picks, built once in setup. Each
 * "request" is a BFS query: level-synchronous distance computation
 * from a Zipf-popular source vertex, with an open-loop think gap
 * between queries. Distances are owner-partitioned (contiguous vertex
 * ranges) and frontiers are per-thread append segments in two
 * alternating buffers, so every write stays in the owner's range and
 * every cross-thread read (frontier segments, counts, CSR arrays) is
 * barrier-separated -- DRF with one barrier per level.
 *
 * Access-pattern mix: sequential CSR row scans, scattered neighbour
 * gathers (classic irregular reads), append-streams for frontiers,
 * and hot hub blocks shared by every node.
 */

#ifndef PSIM_APPS_BFS_HH
#define PSIM_APPS_BFS_HH

#include <cstdint>
#include <vector>

#include "apps/reqgen.hh"
#include "apps/workload.hh"

namespace psim::apps
{

/**
 * Owner-partitioning of the vertices: thread t owns the contiguous
 * range [lo(t), lo(t + 1)), lo(t) = t * nV / nproc. The nproc + 1
 * boundaries are computed once, so the owner lookup on every frontier
 * edge is a shift and one compare, with no division.
 */
class VertexPartition
{
  public:
    VertexPartition() = default;

    /** @pre nV is a power of two and nV >= nproc >= 1 */
    VertexPartition(std::uint32_t nV, unsigned nproc);

    std::uint32_t lo(unsigned t) const { return _lo[t]; }

    /** The thread owning vertex @p v < nV. */
    unsigned
    ownerOf(std::uint32_t v) const
    {
        // floor(v * nproc / nV) never overshoots the owner, and falls
        // short of it by at most one (nV >= nproc).
        auto t = static_cast<unsigned>(
                (static_cast<std::uint64_t>(v) * _nproc) >> _vShift);
        if (_lo[t + 1] <= v)
            ++t;
        return t;
    }

  private:
    std::vector<std::uint32_t> _lo; ///< nproc + 1 boundaries
    unsigned _nproc = 0;
    unsigned _vShift = 0; ///< log2(nV)
};

class BfsWorkload : public Workload
{
  public:
    explicit BfsWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

  private:
    Addr segAddr(unsigned buf, unsigned t) const;
    Addr cntAddr(unsigned buf, unsigned t) const;

    std::uint32_t _nV = 0;   ///< vertices (power of two)
    std::uint64_t _nE = 0;   ///< edges
    std::uint64_t _queries = 0; ///< BFS episodes
    std::uint32_t _segCap = 0;  ///< frontier entries per thread
    VertexPartition _part;
    std::uint64_t _seed = 0;
    Tick _interArrival = 0;
    double _theta = 0.99;

    Addr _rowOff = 0; ///< u32[nV+1]
    Addr _col = 0;    ///< u32[nE]
    Addr _dist = 0;   ///< u32[nV]
    Addr _seg[2] = {0, 0}; ///< frontier segments, per buffer
    Addr _cnt[2] = {0, 0}; ///< frontier counts, per buffer
    Addr _results = 0;
    Addr _bar = 0;

    std::unique_ptr<ZipfSampler> _zipf;
    std::vector<std::uint32_t> _refDist; ///< after the last query
    std::vector<std::uint64_t> _refDigest; ///< per-thread result slot
    std::vector<std::uint64_t> _refVisited;
};

} // namespace psim::apps

#endif // PSIM_APPS_BFS_HH
