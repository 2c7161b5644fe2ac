/**
 * @file
 * Perceptron-gated prefetch filtering (post-paper; after Wang & Luo,
 * arXiv:1712.00905).
 *
 * Wraps any base scheme: every candidate the base proposes is scored by
 * a perceptron over cheap features (trigger PC, block delta, target
 * block), and candidates scoring negative are suppressed before the
 * cache ever sees them. Training comes from the cache's existing
 * prefetch-fate feedback (notePrefetchOutcome): a useful fate pushes
 * the features that issued the prefetch up, a useless fate pushes them
 * down, with the classic margin rule (train while |sum| <= theta or the
 * prediction was wrong). A deterministic 1-in-16 probe lets a fraction
 * of suppressed candidates through so a phase change can re-train the
 * weights -- the simulator allows no randomness.
 */

#ifndef PSIM_CORE_PTRON_HH
#define PSIM_CORE_PTRON_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/prefetcher.hh"
#include "sim/stats.hh"

namespace psim
{

class PerceptronFilter : public Prefetcher
{
  public:
    /** Weight clamp: signed 6-bit counters, like the branch predictors. */
    static constexpr int kWeightMin = -32;
    static constexpr int kWeightMax = 31;
    /** Every Nth suppressed candidate issues anyway (exploration). */
    static constexpr unsigned kProbePeriod = 16;
    /** Issued-candidate features awaiting a fate. */
    static constexpr std::size_t kPendingCap = 512;

    PerceptronFilter(unsigned block_size, unsigned theta,
                     std::unique_ptr<Prefetcher> base)
        : _blockSize(block_size), _theta(static_cast<int>(theta)),
          _base(std::move(base))
    {
        _weights.fill(0);
    }

    void
    observeRead(const ReadObservation &obs, std::vector<Addr> &out) override
    {
        _scratch.clear();
        _base->observeRead(obs, _scratch);

        for (Addr cand : _scratch) {
            Features f = featuresOf(obs, cand);
            int sum = score(f);
            bool allow = sum >= 0;
            if (!allow) {
                ++suppressed;
                if (++_probeClock % kProbePeriod == 0) {
                    allow = true;
                    ++probes;
                }
            }
            if (allow) {
                out.push_back(cand);
                remember(alignDown(cand, _blockSize), f, sum);
            }
        }
    }

    void
    notePrefetchOutcome(bool useful, bool late = false,
                        Addr blk_addr = 0) override
    {
        auto it = _pending.find(blk_addr);
        if (it != _pending.end()) {
            train(it->second, useful);
            _pending.erase(it);
        }
        _base->notePrefetchOutcome(useful, late, blk_addr);
    }

    /** Fates are this scheme's training signal. */
    bool wantsOutcomeFeedback() const override { return true; }

    bool
    wantsBlockContent() const override
    {
        return _base->wantsBlockContent();
    }

    void
    registerStats(stats::Group &g) override
    {
        Prefetcher::registerStats(g);
        g.addScalar("ptronSuppressed", &suppressed,
                "base-scheme candidates suppressed by the filter");
        g.addScalar("ptronProbes", &probes,
                "suppressed candidates issued as exploration probes");
        g.addScalar("ptronTrainUp", &trainUp,
                "weight updates toward issuing");
        g.addScalar("ptronTrainDown", &trainDown,
                "weight updates toward suppressing");
    }

    /** Score the candidate a trigger would produce (tests). */
    int
    scoreFor(const ReadObservation &obs, Addr cand) const
    {
        return score(featuresOf(obs, cand));
    }

    stats::Scalar suppressed;
    stats::Scalar probes;
    stats::Scalar trainUp;
    stats::Scalar trainDown;

  private:
    /** Indices into the concatenated weight tables. */
    struct Features
    {
        std::array<std::uint16_t, 4> idx{};
    };

    struct PendingIssue
    {
        Features f;
        int sum = 0;
    };

    Features
    featuresOf(const ReadObservation &obs, Addr cand) const
    {
        Addr cand_blk = alignDown(cand, _blockSize);
        Addr trig_blk = alignDown(obs.addr, _blockSize);
        std::int64_t delta =
                (static_cast<std::int64_t>(cand_blk) -
                 static_cast<std::int64_t>(trig_blk)) /
                static_cast<std::int64_t>(_blockSize);
        Features f;
        f.idx[0] = 0; // bias
        f.idx[1] = static_cast<std::uint16_t>(
                1 + ((obs.pc >> 2) & 63));
        f.idx[2] = static_cast<std::uint16_t>(
                65 + (static_cast<std::uint64_t>(delta + 32) & 63));
        f.idx[3] = static_cast<std::uint16_t>(
                129 + ((cand_blk / _blockSize) & 63));
        return f;
    }

    int
    score(const Features &f) const
    {
        int sum = 0;
        for (std::uint16_t i : f.idx)
            sum += _weights[i];
        return sum;
    }

    void
    remember(Addr blk, const Features &f, int sum)
    {
        auto [it, inserted] = _pending.try_emplace(blk);
        it->second.f = f;
        it->second.sum = sum;
        if (inserted) {
            _order.push_back(blk);
            if (_order.size() > kPendingCap) {
                _pending.erase(_order.front());
                _order.pop_front();
            }
        }
    }

    void
    train(const PendingIssue &p, bool useful)
    {
        // Margin rule: update on a wrong prediction or a weak margin.
        // Everything issued predicted "useful" (probes carried a
        // negative sum, so a useless fate for them trains nothing new
        // and a useful fate always retrains).
        int mag = p.sum < 0 ? -p.sum : p.sum;
        bool predicted_useful = p.sum >= 0;
        if (predicted_useful != useful || mag <= _theta) {
            int t = useful ? 1 : -1;
            for (std::uint16_t i : p.f.idx) {
                int w = _weights[i] + t;
                if (w < kWeightMin)
                    w = kWeightMin;
                if (w > kWeightMax)
                    w = kWeightMax;
                _weights[i] = static_cast<std::int8_t>(w);
            }
            if (useful)
                ++trainUp;
            else
                ++trainDown;
        }
    }

    unsigned _blockSize;
    int _theta;
    std::unique_ptr<Prefetcher> _base;

    /** bias (1) + PC (64) + block delta (64) + target block (64). */
    std::array<std::int8_t, 193> _weights;

    std::unordered_map<Addr, PendingIssue> _pending;
    std::deque<Addr> _order;
    unsigned _probeClock = 0;
    std::vector<Addr> _scratch;
};

} // namespace psim

#endif // PSIM_CORE_PTRON_HH
