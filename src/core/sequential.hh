/**
 * @file
 * Sequential prefetching (Section 3.4).
 *
 * On a read miss to block B, prefetch B+1 .. B+d. On a demand hit to a
 * block tagged as prefetched, prefetch the block d blocks ahead. The
 * scheme needs no detection state at all -- its entire hardware cost is
 * the per-block prefetch bit and a counter, which is the paper's point
 * about its simplicity.
 */

#ifndef PSIM_CORE_SEQUENTIAL_HH
#define PSIM_CORE_SEQUENTIAL_HH

#include "core/prefetcher.hh"

namespace psim
{

class SequentialPrefetcher : public Prefetcher
{
  public:
    /**
     * @param block_size cache block size in bytes
     * @param degree degree of prefetching d
     */
    SequentialPrefetcher(unsigned block_size, unsigned degree)
        : _blockSize(block_size), _degree(degree)
    {
    }

    void
    observeRead(const ReadObservation &obs, std::vector<Addr> &out) override
    {
        Addr blk = alignDown(obs.addr, _blockSize);
        std::int64_t bs = static_cast<std::int64_t>(_blockSize);
        if (!obs.hit) {
            for (unsigned k = 1; k <= _degree; ++k)
                pushCandidate(blk, static_cast<std::int64_t>(k) * bs, out);
        } else if (obs.taggedHit) {
            pushCandidate(blk, static_cast<std::int64_t>(_degree) * bs,
                          out);
        }
    }

  private:
    unsigned _blockSize;
    unsigned _degree;
};

} // namespace psim

#endif // PSIM_CORE_SEQUENTIAL_HH
