/**
 * @file
 * Adaptive sequential prefetching (paper Section 6, after Dahlgren,
 * Dubois and Stenström's adaptive scheme).
 *
 * Sequential prefetching with a dynamically adjusted degree: the cache
 * counts how many prefetched blocks turn out useful, and per window of
 * outcomes the degree is raised when most prefetches are useful and
 * lowered when most are useless. The degree can reach zero -- no
 * prefetches at all during low-locality phases, which is exactly the
 * traffic fix the paper says sequential prefetching needs on Ocean and
 * PTHOR -- and a miss-counting probe re-enables it later.
 */

#ifndef PSIM_CORE_ADAPTIVE_HH
#define PSIM_CORE_ADAPTIVE_HH

#include "core/prefetcher.hh"
#include "sim/stats.hh"

namespace psim
{

class AdaptiveSequentialPrefetcher : public Prefetcher
{
  public:
    /**
     * @param block_size cache block size in bytes
     * @param initial_degree starting degree (paper's fixed scheme: 1)
     * @param max_degree upper bound for the degree
     * @param window outcomes per adaptation decision
     * @param probe_misses misses at degree 0 before probing again
     */
    AdaptiveSequentialPrefetcher(unsigned block_size,
                                 unsigned initial_degree = 1,
                                 unsigned max_degree = 8,
                                 unsigned window = 16,
                                 unsigned probe_misses = 64)
        : _blockSize(block_size),
          _degree(initial_degree),
          _maxDegree(max_degree),
          _window(window),
          _probeMisses(probe_misses)
    {
    }

    void
    observeRead(const ReadObservation &obs, std::vector<Addr> &out) override
    {
        if (_degree == 0) {
            // Disabled: count misses and periodically probe again.
            if (!obs.hit && ++_missesWhileOff >= _probeMisses) {
                _missesWhileOff = 0;
                _degree = 1;
                _ramp = 0;
                ++reenables;
            }
            if (_degree == 0)
                return;
        }
        Addr blk = alignDown(obs.addr, _blockSize);
        std::int64_t bs = static_cast<std::int64_t>(_blockSize);
        if (!obs.hit) {
            for (unsigned k = 1; k <= _degree; ++k)
                pushCandidate(blk, static_cast<std::int64_t>(k) * bs, out);
            _ramp = 0;
        } else if (obs.taggedHit) {
            // Continuing an established stream: blocks up to distance
            // _degree - _ramp ahead were already fetched by earlier
            // steps, but the _ramp most recent degree increases opened
            // holes the stream has not yet covered -- backfill them,
            // or every increase would skip one block forever.
            unsigned first = _degree > _ramp ? _degree - _ramp : 1;
            for (unsigned k = first; k <= _degree; ++k)
                pushCandidate(blk, static_cast<std::int64_t>(k) * bs,
                              out);
            _ramp = 0;
        }
    }

    void
    notePrefetchOutcome(bool useful, bool late = false,
                        Addr blk_addr = 0) override
    {
        (void)blk_addr;
        if (useful)
            ++_usefulInWindow;
        if (useful && late)
            ++_lateInWindow;
        if (++_outcomesInWindow < _window)
            return;

        // Decision point: lower the degree when no more than half of
        // the window was useful (the scheme is fetching dead blocks);
        // raise it when prefetches are useful but mostly late -- the
        // lookahead-distance adjustment the paper attributes to
        // Hagersten's prefetching phase.
        if (_usefulInWindow * 2 <= _window) {
            if (_degree > 0) {
                --_degree;
                ++decreases;
                if (_ramp > 0)
                    --_ramp;
            }
        } else if (_lateInWindow * 2 >= _window) {
            if (_degree < _maxDegree) {
                ++_degree;
                ++increases;
                ++_ramp;
            }
        }
        _outcomesInWindow = 0;
        _usefulInWindow = 0;
        _lateInWindow = 0;
    }

    bool wantsOutcomeFeedback() const override { return true; }

    void
    registerStats(stats::Group &g) override
    {
        Prefetcher::registerStats(g);
        g.addScalar("degreeIncreases", &increases, "degree increases");
        g.addScalar("degreeDecreases", &decreases, "degree decreases");
        g.addScalar("reenables", &reenables,
                "re-enables after a degree-0 phase");
    }

    unsigned degree() const { return _degree; }

    stats::Scalar increases;
    stats::Scalar decreases;
    stats::Scalar reenables;

  private:
    unsigned _blockSize;
    unsigned _degree;
    unsigned _maxDegree;
    unsigned _window;
    unsigned _probeMisses;

    unsigned _outcomesInWindow = 0;
    unsigned _usefulInWindow = 0;
    unsigned _lateInWindow = 0;
    unsigned _missesWhileOff = 0;
    /** Degree increases not yet backfilled on a tagged hit. */
    unsigned _ramp = 0;
};

} // namespace psim

#endif // PSIM_CORE_ADAPTIVE_HH
