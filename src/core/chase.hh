/**
 * @file
 * Pointer-chase / content-directed prefetching (post-paper; after
 * Srivastava & Navalakha, arXiv:1801.08088).
 *
 * The paper's schemes predict the *address stream* and are blind to
 * pointer chasing (PTHOR's headline negative result; kvstore and BFS in
 * the server suite). This scheme instead looks at the *data*: it asks
 * the SLC for the block-content view (Prefetcher::wantsBlockContent)
 * and mines loaded values for two kinds of future addresses:
 *
 *  - raw pointers: 8-aligned words that land inside the live heap
 *    envelope (the min/max of every demand address seen) are chased
 *    directly -- the classic content-directed rule;
 *  - scaled indices: many "pointer" chains store small indices, not
 *    addresses (kvstore's u32 slot links, BFS's u32 vertex ids). A
 *    small PC-indexed pattern table correlates values seen in recent
 *    content blocks with subsequent demand-miss addresses, learning
 *    `miss = base + (value << shift)` relations; a confirmed pattern
 *    turns every freshly observed index into a prefetch.
 *
 * Chases are bounded: candidates derived from a prefetched (not yet
 * demanded) block's content carry a depth, and chains stop at
 * `PrefetchConfig::chaseDepth`. A sequential base scheme runs
 * underneath, exactly as content-directed prefetchers deploy in
 * hardware proposals -- the chase engine covers what the stream engine
 * cannot.
 */

#ifndef PSIM_CORE_CHASE_HH
#define PSIM_CORE_CHASE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/prefetcher.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace psim
{

class ChasePrefetcher : public Prefetcher
{
  public:
    /** Confidence at which a pattern starts prefetching. */
    static constexpr unsigned kLearned = 2;
    /** Confidence saturation. */
    static constexpr unsigned kConfCap = 3;

    /** One learned `miss = base + (value << shift)` relation. */
    struct Pattern
    {
        bool valid = false;
        Pc pc = 0;       ///< consumer: the load that misses at base+(v<<s)
        Pc srcPc = 0;    ///< producer: the load whose content supplies v
        Addr base = 0;
        unsigned shift = 0;
        unsigned srcOff = 0; ///< byte offset of v in producer blocks
        unsigned conf = 0;
        /** Indices harvested from producer content, awaiting a trigger. */
        std::array<std::uint32_t, 16> pending{};
        unsigned npending = 0;
    };

    ChasePrefetcher(unsigned block_size, std::unique_ptr<Prefetcher> base);
    ~ChasePrefetcher() override;

    void observeRead(const ReadObservation &obs,
                     std::vector<Addr> &out) override;

    void
    notePrefetchOutcome(bool useful, bool late = false,
                        Addr blk_addr = 0) override
    {
        _base->notePrefetchOutcome(useful, late, blk_addr);
    }

    bool
    wantsOutcomeFeedback() const override
    {
        return _base->wantsOutcomeFeedback();
    }

    bool wantsBlockContent() const override { return true; }

    void registerStats(stats::Group &g) override;

    /** Peek at the pattern a consumer PC maps to (tests). */
    const Pattern *lookup(Pc pc) const;

    stats::Scalar rawCandidates;      ///< heap-envelope pointer chases
    stats::Scalar indirectCandidates; ///< pattern-directed index chases
    stats::Scalar patternsLearned;    ///< patterns reaching confidence
    stats::Scalar depthClipped;       ///< chases stopped by chaseDepth

  private:
    /** One recently observed content block (learning history). */
    struct RingEntry
    {
        bool valid = false;
        Pc pc = 0;
        Addr blkAddr = 0;
        std::vector<std::uint8_t> bytes;
    };

    std::size_t indexOf(Pc pc) const;
    void learn(const ReadObservation &obs);
    void harvest(const ReadObservation &obs, unsigned obs_depth,
                 std::vector<Addr> &out);
    /** Append one chase candidate, tracking depth; false when clipped. */
    bool emit(Addr base, Addr offset, unsigned obs_depth,
              std::vector<Addr> &out);

    unsigned _blockSize;
    std::unique_ptr<Prefetcher> _base; ///< never null

    std::array<Pattern, PrefetchConfig::chaseEntries> _patterns{};
    std::array<RingEntry, 4> _ring;
    unsigned _ringHead = 0;

    /** Live-heap envelope: min/max demand address observed. */
    Addr _envLo = ~static_cast<Addr>(0);
    Addr _envHi = 0;

    /** Chase depth of prefetched-but-undemanded blocks. */
    std::unordered_map<Addr, unsigned> _depth;
    std::deque<Addr> _depthFifo;

    /** Chase candidates emitted for the current observation. */
    unsigned _emitted = 0;
};

} // namespace psim

#endif // PSIM_CORE_CHASE_HH
