/**
 * @file
 * Ocean: red-black SOR over a 2-D grid (stands in for SPLASH Ocean).
 *
 * The grid is partitioned into vertical strips of columns, and each
 * color sweep scans a column top to bottom visiting every other row:
 * consecutive reads are two grid rows apart, i.e. a stride of
 * 2*(G+2)*8 bytes -- 65 blocks for the paper's 128x128 grid -- which is
 * exactly the large dominant stride Table 2 reports for Ocean. The
 * blocks between two strided misses belong to other processors'
 * columns and are never referenced locally, so sequential prefetching
 * fetches dead blocks here; this is the one application where stride
 * prefetching wins, as in the paper.
 */

#ifndef PSIM_APPS_OCEAN_HH
#define PSIM_APPS_OCEAN_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class OceanWorkload : public Workload
{
  public:
    explicit OceanWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned interior() const { return _g; }

  private:
    Addr
    cell(unsigned i, unsigned j) const
    {
        return _grid + (static_cast<Addr>(i) * (_g + 2) + j) *
                       sizeof(double);
    }

    std::size_t
    refIndex(unsigned i, unsigned j) const
    {
        return static_cast<std::size_t>(i) * (_g + 2) + j;
    }

    unsigned _g = 0;     ///< interior size (grid is (g+2)^2 with border)
    unsigned _iters = 0;
    Addr _grid = 0;
    Addr _bar = 0;
    std::vector<double> _ref;
};

} // namespace psim::apps

#endif // PSIM_APPS_OCEAN_HH
