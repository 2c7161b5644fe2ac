/**
 * @file
 * Banded Cholesky factorization (stands in for SPLASH Cholesky).
 *
 * SPLASH Cholesky factors a sparse SPD matrix column by column; its
 * read-miss signature in the paper is ~80% of misses inside stride
 * sequences with a dominant stride of one block and an average sequence
 * length of ~7 references. A banded SPD factorization reproduces that
 * signature exactly: every update streams a remote pivot column --
 * contiguous 8-byte-stride runs of about one bandwidth -- so misses
 * form unit-block-stride sequences of ~band/4 blocks.
 */

#ifndef PSIM_APPS_CHOLESKY_HH
#define PSIM_APPS_CHOLESKY_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class CholeskyWorkload : public Workload
{
  public:
    explicit CholeskyWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned order() const { return _n; }
    unsigned bandwidth() const { return _band; }

  private:
    /** Band storage: column j holds rows j .. j+band. */
    Addr
    elem(unsigned i, unsigned j) const
    {
        return _a + (static_cast<Addr>(j) * (_band + 1) + (i - j)) *
                       sizeof(double);
    }

    std::size_t
    refIndex(unsigned i, unsigned j) const
    {
        return static_cast<std::size_t>(j) * (_band + 1) + (i - j);
    }

    unsigned _n = 0;
    unsigned _band = 0;
    Addr _a = 0;
    Addr _bar = 0;
    Addr _norms = 0; ///< one result slot per processor
    std::vector<double> _ref;
    std::vector<double> _refNorms;
};

} // namespace psim::apps

#endif // PSIM_APPS_CHOLESKY_HH
