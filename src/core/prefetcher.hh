/**
 * @file
 * Hardware prefetcher interface (Section 3 of the paper).
 *
 * All schemes attach to the second-level cache and observe the read
 * requests the FLC presents to it (both hits and misses). They never see
 * FLC hits -- exactly the paper's "the prefetch mechanisms only observe
 * block references".
 *
 * All schemes share the same prefetching phase (Section 3.3): the SLC
 * tags prefetched blocks with one bit; a demand hit on a tagged block
 * clears the bit and asks the prefetcher for the continuation. The
 * prefetcher returns candidate *byte* addresses; the SLC block-aligns
 * them, drops candidates that are already present/pending, and enforces
 * the no-prefetch-across-page-boundaries rule.
 */

#ifndef PSIM_CORE_PREFETCHER_HH
#define PSIM_CORE_PREFETCHER_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

/**
 * One read request presented to the SLC.
 *
 * Schemes that return true from Prefetcher::wantsBlockContent()
 * additionally receive (a) a whole-block content view on hits and
 * fills, and (b) synthesized observations (fill = true) when a read or
 * prefetch transaction completes -- the only two points where the
 * functional block content is coherence-stable, so reading it cannot
 * race with a concurrent writer. Schemes that do not ask for content
 * never see fill observations and behave byte-identically to earlier
 * releases.
 */
struct ReadObservation
{
    Pc pc = 0;             ///< PC of the load (I-detection uses it)
    Addr addr = 0;         ///< byte address requested
    bool hit = false;      ///< SLC hit?
    bool taggedHit = false; ///< hit on a block whose prefetch bit was set
    bool fill = false;     ///< synthesized at transaction fill time
    bool prefetchFill = false; ///< fill of a prefetch no demand touched
    /** Whole-block functional content, or null when not captured. */
    const std::uint8_t *content = nullptr;
    unsigned contentLen = 0;   ///< bytes behind content (the block size)
};

class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one read request and append prefetch candidates (byte
     * addresses) to @p out. Candidates may duplicate or alias blocks;
     * the SLC filters.
     */
    virtual void observeRead(const ReadObservation &obs,
                             std::vector<Addr> &out) = 0;

    /**
     * Feedback from the cache: one issued prefetch reached its fate --
     * @p useful when a demand access consumed it (@p late when the
     * consumer had to wait because the prefetch was still in flight),
     * not useful when it was invalidated, replaced or aged out still
     * unreferenced. @p blk_addr names the prefetched block so filters
     * can credit the candidate that produced it. Adaptive schemes use
     * this; the fixed schemes ignore it.
     */
    virtual void
    notePrefetchOutcome(bool useful, bool late = false, Addr blk_addr = 0)
    {
        (void)useful;
        (void)late;
        (void)blk_addr;
    }

    /**
     * Does this scheme consume notePrefetchOutcome()? The cache only
     * maintains the prefetch-aging ring (and its aged-unused verdicts)
     * for schemes that do; for the fixed schemes the ring would change
     * the accounting without ever changing behaviour.
     */
    virtual bool wantsOutcomeFeedback() const { return false; }

    /**
     * Does this scheme want the block-content view (and the synthesized
     * fill observations) described on ReadObservation? The cache only
     * captures content -- a backing-store read per observation -- for
     * schemes that do.
     */
    virtual bool wantsBlockContent() const { return false; }

    /**
     * Register the scheme's statistics into @p g (one group per node,
     * owned by the machine's stats::Registry). Subclasses extend.
     */
    virtual void
    registerStats(stats::Group &g)
    {
        g.addScalar("candidatesWrapped", &candidatesWrapped,
                "candidates dropped for wrapping the address space");
    }

    /** Candidates dropped because base + offset left the address space. */
    stats::Scalar candidatesWrapped;

    /** Build the scheme selected by @p cfg.prefetch (never null). */
    static std::unique_ptr<Prefetcher> create(const MachineConfig &cfg);

  protected:
    /**
     * Append base + offset to @p out unless the sum wraps the address
     * space. Down-strides below zero and up-strides past the top of the
     * 64-bit space would alias an unrelated (usually very small or very
     * large) address; such candidates are dropped and counted.
     */
    void
    pushCandidate(Addr base, std::int64_t offset, std::vector<Addr> &out)
    {
        if (offset >= 0) {
            Addr off = static_cast<Addr>(offset);
            if (base > std::numeric_limits<Addr>::max() - off) {
                ++candidatesWrapped;
                return;
            }
            out.push_back(base + off);
        } else {
            // -(offset + 1) + 1 avoids negating INT64_MIN.
            Addr mag = static_cast<Addr>(-(offset + 1)) + 1;
            if (mag > base) {
                ++candidatesWrapped;
                return;
            }
            out.push_back(base - mag);
        }
    }

    /**
     * Round a byte stride to a whole (signed, nonzero) block stride:
     * a stride shorter than one block still advances by one block.
     */
    static std::int64_t
    blockStride(std::int64_t stride_bytes, unsigned block_size)
    {
        std::int64_t bs = static_cast<std::int64_t>(block_size);
        std::int64_t blocks = stride_bytes / bs;
        if (blocks == 0)
            blocks = stride_bytes > 0 ? 1 : -1;
        return blocks * bs;
    }
};

/** The baseline architecture: no prefetching. */
class NullPrefetcher : public Prefetcher
{
  public:
    void
    observeRead(const ReadObservation &, std::vector<Addr> &) override
    {
    }
};

} // namespace psim

#endif // PSIM_CORE_PREFETCHER_HH
