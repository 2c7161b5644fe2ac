/**
 * @file
 * I-detection stride prefetching (Section 3.2 + the shared prefetching
 * phase of Section 3.3), with the Baer/Chen lookahead-PC variant the
 * paper discusses in Section 6.
 *
 * Detection uses the Rpt. The prefetching phase has two modes:
 *
 * - Tagged continuation (the paper's scheme, lookahead 0). On a
 *   (re)detected stride sequence starting at address B with stride S,
 *   blocks B+S .. B+d*S are prefetched. On a demand hit to a tagged
 *   block by an instruction with a live RPT entry, the block at
 *   addr + d*S is prefetched, so the prefetcher keeps running ahead of
 *   the processor along the stride sequence (Figure 5).
 * - Lookahead PC (Baer/Chen, lookahead L > 0). Their lookahead program
 *   counter runs ahead of the real PC by about one miss latency; the
 *   paper replaces it with the tagged continuation to avoid processor
 *   modifications, arguing the difference is small. Modelled within the
 *   SLC-observation framework, every read that matches a prefetchable
 *   RPT entry prefetches addr + L*S -- the steady-state effect of a
 *   lookahead PC that stays L dynamic executions of the load ahead. It
 *   does not depend on the prefetched-block tag at all.
 */

#ifndef PSIM_CORE_IDET_HH
#define PSIM_CORE_IDET_HH

#include "core/prefetcher.hh"
#include "core/rpt.hh"

namespace psim
{

class IDetPrefetcher : public Prefetcher
{
  public:
    /**
     * @param rpt_entries RPT size (paper: 256, direct-mapped)
     * @param degree degree of prefetching d (tagged continuation only)
     * @param block_size cache block size in bytes
     * @param lookahead 0 for the paper's tagged continuation; otherwise
     *        how many dynamic strides the (virtual) lookahead PC runs
     *        ahead of the processor
     */
    IDetPrefetcher(unsigned rpt_entries, unsigned degree,
                   unsigned block_size, unsigned lookahead = 0)
        : _rpt(rpt_entries), _degree(degree), _blockSize(block_size),
          _lookahead(lookahead)
    {
    }

    void
    observeRead(const ReadObservation &obs, std::vector<Addr> &out) override
    {
        // All read requests presented to the SLC are matched against
        // the RPT; entries are only allocated for SLC misses.
        Rpt::Outcome oc = _rpt.observe(obs.pc, obs.addr, !obs.hit);
        if (!oc.prefetchable)
            return;

        // Prefetching works on blocks: a stride shorter than one block
        // still advances the prefetcher by whole blocks (the paper's
        // Table 2 likewise reports sub-block strides as stride 1).
        std::int64_t sblk = blockStride(oc.stride, _blockSize);
        if (_lookahead) {
            // The lookahead PC is `lookahead` executions of this load
            // ahead, so it accesses addr + lookahead * stride right now.
            pushCandidate(obs.addr,
                          sblk * static_cast<std::int64_t>(_lookahead),
                          out);
        } else if (!obs.hit) {
            // (Re)start of a sequence at B: prefetch B+S .. B+d*S.
            for (unsigned k = 1; k <= _degree; ++k)
                pushCandidate(obs.addr, sblk * k, out);
        } else if (obs.taggedHit) {
            // Continuation: prefetch d strides ahead of the reference.
            pushCandidate(obs.addr, sblk * static_cast<int>(_degree),
                          out);
        }
    }

    void
    registerStats(stats::Group &g) override
    {
        Prefetcher::registerStats(g);
        _rpt.registerStats(g);
    }

  private:
    Rpt _rpt;
    unsigned _degree;
    unsigned _blockSize;
    unsigned _lookahead;
};

} // namespace psim

#endif // PSIM_CORE_IDET_HH
