/**
 * @file
 * Radix: parallel radix sort (in the style of SPLASH-2 RADIX).
 *
 * Iterative counting sort over 4-bit digits. Each pass: every
 * processor histograms its contiguous key chunk (sequential reads),
 * processor 0 turns the per-processor histograms into global offsets
 * (a small all-to-one phase), then every processor permutes its keys
 * into the destination array (sequential reads, *scattered remote
 * writes* -- the write-ownership traffic pattern none of the paper's
 * six applications exercises this heavily).
 *
 * Extension workload; registry name "radix".
 */

#ifndef PSIM_APPS_RADIX_HH
#define PSIM_APPS_RADIX_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class RadixWorkload : public Workload
{
  public:
    explicit RadixWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned keys() const { return _nkeys; }

    static constexpr unsigned kRadixBits = 4;
    static constexpr unsigned kBuckets = 1u << kRadixBits;
    static constexpr unsigned kPasses = 4; ///< sorts 16-bit keys

  private:
    Addr
    keyAddr(Addr array, unsigned i) const
    {
        return array + static_cast<Addr>(i) * 8;
    }

    /** Per-processor histogram slot (one block per bucket row). */
    Addr
    histAddr(unsigned proc, unsigned bucket) const
    {
        return _hist + (static_cast<Addr>(proc) * kBuckets + bucket) * 8;
    }

    /** Global start offset of (bucket, proc) in the destination. */
    Addr
    offsetAddr(unsigned proc, unsigned bucket) const
    {
        return _offsets +
               (static_cast<Addr>(bucket) * _nproc + proc) * 8;
    }

    unsigned _nkeys = 0;
    unsigned _nproc = 0;
    Addr _src = 0;
    Addr _dst = 0;
    Addr _hist = 0;
    Addr _offsets = 0;
    Addr _bar = 0;
    std::vector<std::uint64_t> _ref; ///< expected final key order
};

} // namespace psim::apps

#endif // PSIM_APPS_RADIX_HH
