/**
 * @file
 * D-detection stride prefetching (Section 3.2; after Hagersten).
 *
 * Detection works on data addresses only -- no program counter needed.
 * Four 16-entry LRU structures:
 *
 *  - the *miss list* buffers recent read-miss addresses;
 *  - each new miss is paired with every buffered miss, and every
 *    candidate stride updates the *frequency table*;
 *  - a stride whose frequency reaches the stride threshold (3) moves to
 *    the *list of common strides*;
 *  - when a new miss forms a common stride with a buffered miss, a
 *    stream is allocated in the *stream list* and prefetching starts
 *    (this is why two additional misses are needed once a stride has
 *    become common).
 *
 * The prefetching phase is the shared one of Section 3.3: d blocks ahead
 * on stream creation, one more block per demand hit on a tagged block.
 */

#ifndef PSIM_CORE_DDET_HH
#define PSIM_CORE_DDET_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/prefetcher.hh"
#include "sim/stats.hh"

namespace psim
{

class DDetPrefetcher : public Prefetcher
{
  public:
    /**
     * Each of the four structures holds PrefetchConfig::ddetEntries
     * entries, a stride is common after PrefetchConfig::strideThreshold
     * occurrences, and candidate strides of a page or more are ignored:
     * prefetching cannot cross a page anyway.
     *
     * @param block_size cache block size in bytes
     * @param degree degree of prefetching d
     */
    DDetPrefetcher(unsigned block_size, unsigned degree);

    void observeRead(const ReadObservation &obs,
                     std::vector<Addr> &out) override;

    void
    visitStats(stats::Visitor &v) const override
    {
        Prefetcher::visitStats(v);
        v.scalar("streamsCreated", "streams allocated", streamsCreated);
        v.scalar("stridesPromoted",
                "strides promoted to the common-stride list",
                stridesPromoted);
    }

    /** Streams allocated over the run. */
    stats::Scalar streamsCreated;
    /** Strides promoted to the common-stride list. */
    stats::Scalar stridesPromoted;

    // ---- introspection for tests ----
    bool isCommonStride(std::int64_t s) const;
    std::size_t numStreams() const { return _streams.size(); }

  private:
    struct FreqEntry
    {
        std::int64_t stride;
        unsigned count;
        std::uint64_t lastUse;
    };

    struct CommonEntry
    {
        std::int64_t stride;
        std::uint64_t lastUse;
    };

    struct Stream
    {
        Addr lastAddr;
        std::int64_t stride;
        std::uint64_t lastUse;
    };

    void emitStart(Addr base, std::int64_t stride, std::vector<Addr> &out);
    void noteStride(std::int64_t s);
    void promote(std::int64_t s);
    Stream *findStreamExpecting(Addr addr);
    void allocStream(Addr addr, std::int64_t stride);

    template <typename Vec>
    void
    evictLru(Vec &v)
    {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < v.size(); ++i) {
            if (v[i].lastUse < v[victim].lastUse)
                victim = i;
        }
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    static constexpr unsigned kEntries = PrefetchConfig::ddetEntries;
    static constexpr std::int64_t kMaxStrideBytes = MachineConfig::pageSize;

    unsigned _blockSize;
    unsigned _degree;

    std::uint64_t _clock = 0; ///< LRU timestamp source

    std::deque<Addr> _missList;
    std::vector<FreqEntry> _freq;
    std::vector<CommonEntry> _common;
    std::vector<Stream> _streams;
    /** Strides already counted for the current observation (the miss
     *  list may buffer one address twice; the repeated stride must not
     *  be double-counted toward promotion). */
    std::vector<std::int64_t> _strideScratch;
};

} // namespace psim

#endif // PSIM_CORE_DDET_HH
