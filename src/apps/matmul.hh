/**
 * @file
 * The paper's Figure-2 matrix multiplication example.
 *
 * C = C + A * B with all three matrices row-major. In the inner loop
 * the accesses to A have a stride of one element (8 bytes) and the
 * accesses to B a stride of one row (N elements), exactly the two
 * stride regimes the paper uses to motivate the detection schemes.
 * Rows of C are block-distributed over the processors.
 */

#ifndef PSIM_APPS_MATMUL_HH
#define PSIM_APPS_MATMUL_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class MatmulWorkload : public Workload
{
  public:
    explicit MatmulWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned order() const { return _n; }

  private:
    Addr
    at(Addr base, unsigned i, unsigned j) const
    {
        return base + (static_cast<Addr>(i) * _n + j) * sizeof(double);
    }

    unsigned _n = 0;
    Addr _a = 0;
    Addr _b = 0;
    Addr _c = 0;
    Addr _bar = 0;
    std::vector<double> _ref;
};

} // namespace psim::apps

#endif // PSIM_APPS_MATMUL_HH
