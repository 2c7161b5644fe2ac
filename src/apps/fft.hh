/**
 * @file
 * FFT: six-step 1-D complex FFT (in the style of SPLASH-2 FFT).
 *
 * The data set is a sqrt(N) x sqrt(N) matrix of complex doubles.
 * Each processor owns a contiguous band of rows. The computation
 * alternates transposes -- whose reads walk *columns* of a row-major
 * matrix, a large-stride pattern of one row (32 blocks at the default
 * size) per access, mostly remote -- with per-row radix-2 FFTs, whose
 * accesses are unit-stride and local. This gives FFT a signature the
 * six paper applications do not cover: phase-alternating large-stride
 * and sequential access from the same processor.
 *
 * Not part of the paper's six applications; included as an extension
 * workload (the registry name is "fft").
 */

#ifndef PSIM_APPS_FFT_HH
#define PSIM_APPS_FFT_HH

#include <complex>
#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned rows() const { return _m; }

  private:
    /** Address of element (i,j) of matrix @p base (16 B elements). */
    Addr
    at(Addr base, unsigned i, unsigned j) const
    {
        return base + (static_cast<Addr>(i) * _m + j) * 16;
    }

    Addr twiddle(unsigned k) const { return _w + static_cast<Addr>(k) * 16; }

    /** The same per-row FFT the simulated threads run, natively. */
    static void rowFftNative(std::complex<double> *row, unsigned n,
                             const std::vector<std::complex<double>> &w);

    unsigned _m = 0; ///< matrix dimension (sqrt of the FFT size)
    Addr _a = 0;     ///< matrix A
    Addr _b = 0;     ///< matrix B (transpose target)
    Addr _w = 0;     ///< twiddle table (m entries, roots of unity)
    Addr _bar = 0;
    std::vector<std::complex<double>> _ref; ///< final expected B
};

} // namespace psim::apps

#endif // PSIM_APPS_FFT_HH
