/**
 * @file
 * LU decomposition (one of the paper's two Stanford applications).
 *
 * Dense, non-pivoting, column-interleaved LU: column j is owned by
 * processor j mod P. In the update phase every processor streams
 * through the pivot column -- a remote, read-only, unit-stride (8-byte)
 * access pattern -- which gives LU the paper's signature: almost all
 * read misses inside long stride sequences with a dominant stride of
 * one block.
 */

#ifndef PSIM_APPS_LU_HH
#define PSIM_APPS_LU_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class LuWorkload : public Workload
{
  public:
    explicit LuWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned order() const { return _n; }

  private:
    /** Column-major element address. */
    Addr
    elem(unsigned i, unsigned j) const
    {
        return _a + (static_cast<Addr>(j) * _n + i) * sizeof(double);
    }

    unsigned _n = 0;
    Addr _a = 0;
    Addr _bar = 0;
    std::vector<double> _ref; ///< natively factored reference
};

} // namespace psim::apps

#endif // PSIM_APPS_LU_HH
