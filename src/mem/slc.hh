/**
 * @file
 * Second-level cache (paper Section 2).
 *
 * A write-back, lockup-free cache: the SLWB holds one entry per pending
 * transaction (demand read, prefetch, write-ownership), so the cache
 * keeps servicing requests while misses are outstanding -- the property
 * that makes non-binding prefetching possible at all.
 *
 * The prefetcher attaches here and observes exactly the read requests
 * the FLC presents to the SLC. Prefetched blocks carry the 1-bit
 * "prefetched" tag of Section 3.3; a demand hit on a tagged block clears
 * the bit, counts the prefetch useful, and asks the prefetcher for the
 * continuation. Prefetch candidates are dropped when they would cross
 * the triggering access's page, already hit in the cache, match a
 * pending transaction, or when no SLWB entry is free.
 */

#ifndef PSIM_MEM_SLC_HH
#define PSIM_MEM_SLC_HH

#include <deque>
#include <memory>
#include <vector>

#include "core/characterizer.hh"
#include "trace/trace.hh"
#include "core/prefetcher.hh"
#include "mem/cache_array.hh"
#include "mem/write_buffer.hh"
#include "proto/message.hh"
#include "sim/audit.hh"
#include "sim/block_table.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace psim
{

class Machine;
class Cpu;
class Flc;
class ChromeTracer;

class Slc
{
  public:
    Slc(Machine &m, NodeId id, Flc &flc, Cpu &cpu);

    /**
     * Present the FLWB head entry. @return false when the entry needs a
     * pending-transaction (SLWB) slot and none is free; the FLWB retries.
     */
    bool tryAccept(const FlwbEntry &e);

    /** FLWB-side processing after the tag-array access completes. */
    void processRead(Addr addr, Pc pc);
    void processWrite(Addr addr, Pc pc);

    /** A coherence message delivered over the local bus. */
    void receive(const Message &m);

    /** Optional Table-2/3 analysis of this node's demand-miss stream. */
    void
    setCharacterizer(StrideCharacterizer *c)
    {
        _characterizer = c;
    }

    /** Optional writer receiving every request presented to this SLC. */
    void setTraceWriter(TraceWriter *w) { _trace = w; }

    /** Attach the chrome://tracing exporter (read-only observation). */
    void setChromeTracer(ChromeTracer *t) { _chrome = t; }

    /** Register this cache's statistics into @p g. */
    void registerStats(stats::Group &g);

    /** Count still-tagged blocks as useless at end of simulation. */
    void finalizeStats();

    Prefetcher &prefetcher() { return *_prefetcher; }

    /** Resident state of a block (tests / invariant checks). */
    CohState
    stateOf(Addr blk_addr) const
    {
        const CacheBlk *b = _array.find(blk_addr);
        return b ? b->state : CohState::Invalid;
    }

    std::size_t pendingTransactions() const { return _mshrs.size(); }

    /**
     * Pending transactions occupying SLWB data-buffer slots. Write
     * entries issued as upgrades await only an ownership ack and buffer
     * no data, so they do not consume a slot. Public so the interval
     * sampler can probe buffer occupancy over time. Maintained
     * incrementally -- this is probed on every admission and every
     * prefetch candidate, and the old scan over the MSHR map was one of
     * the top fig6 hot spots.
     */
    std::size_t slwbOccupancy() const { return _slwbOcc; }

    const CacheArray &array() const { return _array; }

    // ---- statistics ----

    stats::Scalar demandReads;        ///< read requests presented by FLC
    stats::Scalar demandReadMisses;   ///< the paper's "read misses"
    stats::Scalar missesCold;
    stats::Scalar missesCoherence;
    stats::Scalar missesReplacement;
    stats::Scalar writeRequests;
    stats::Scalar writeMisses;        ///< stores needing ReadEx
    stats::Scalar upgrades;           ///< stores needing S->M upgrade
    stats::Scalar writebacks;
    stats::Scalar invalidationsRecv;

    stats::Scalar pfIssued;           ///< prefetch requests sent
    stats::Scalar pfUsefulTagged;     ///< demand hit on a tagged block
    stats::Scalar pfUsefulLate;       ///< demand merged with a pending pf
    stats::Scalar pfWriteHitTagged;   ///< store hit on a tagged block
    stats::Scalar pfUselessInvalidated;
    stats::Scalar pfUselessReplaced;
    stats::Scalar pfAgedUnused;       ///< aged out of the ring untouched
    stats::Scalar pfUselessUnused;    ///< still tagged at end of run
    stats::Scalar pfDropInCache;
    stats::Scalar pfDropPending;
    stats::Scalar pfDropPageCross;
    stats::Scalar pfDropNoSlot;

    /** Useful prefetches (paper's prefetch-efficiency numerator). */
    double usefulPrefetches() const;

  private:
    struct Mshr
    {
        enum class Kind : std::uint8_t { Read, Prefetch, Write };

        Kind kind = Kind::Read;
        Pc pc = 0;
        Addr demandAddr = 0;     ///< byte address the processor wanted
        bool demandWaiting = false;
        bool upgrade = false;    ///< Write entry issued as UpgradeReq
        /**
         * An invalidation arrived while this transaction was in
         * flight. Our InvAck may already have let a remote writer
         * proceed, so the eventual fill's functional content is not
         * coherence-stable; content-directed schemes must not read it
         * (the data is stale for them anyway).
         */
        bool invFlight = false;
        unsigned pendingStores = 0;
        unsigned deferredStores = 0; ///< stores arriving during a read
    };

    /**
     * Can a new transaction claim an SLWB slot? The reserve rule keeps
     * the last free slot for demand accesses: a demand allocation needs
     * one free slot, a prefetch allocation must leave one behind.
     */
    bool slwbHasRoom(bool demand) const;

    Mshr *findMshr(Addr blk_addr);

    void classifyMiss(Addr blk_addr);
    void maybePrefetch(Addr trigger_addr, Pc pc,
                       const std::vector<Addr> &candidates);
    void sendToHome(MsgType t, Addr blk_addr, Pc pc, bool prefetch);
    void handleFill(const Message &m, bool exclusive);
    void completeStores(Mshr &e);
    /**
     * Make room for a fill of @p blk_addr; handles writeback of a
     * Modified victim. @return the frame findVictim chose, cleared of
     * any other block (still valid only if @p blk_addr is resident).
     */
    CacheBlk *makeRoom(Addr blk_addr);
    void invalidateBlock(CacheBlk *blk, Addr blk_addr, bool replacement);

    Machine &_m;
    /** The machine's event queue. */
    EventQueue &_eq;
    NodeId _id;
    Flc &_flc;
    Cpu &_cpu;
    TraceWriter *_trace = nullptr; ///< null when tracing is off
    ChromeTracer *_chrome = nullptr; ///< null when chrome tracing is off
    CacheArray _array;
    std::unique_ptr<Prefetcher> _prefetcher;
    StrideCharacterizer *_characterizer = nullptr;
    audit::NodeAudit *_audit = nullptr; ///< null when auditing is off

    /**
     * Report an outcome for one prefetched block exactly once: true the
     * first time a demand access consumes it, false the first time it
     * is invalidated, replaced, or ages out of the recent-prefetch ring
     * still untouched (bounded-delay feedback for adaptive schemes).
     */
    void reportOutcome(CacheBlk *blk, Addr blk_addr, bool useful);

    /**
     * Hand a prefetched block's terminal fate to the audit ledger and
     * the chrome trace (whichever are attached). The caller keeps its
     * own pf* counter, which the audit cross-checks independently.
     */
    void noteFate(Addr blk_addr, audit::Fate fate, audit::Event ev,
                  Tick now);

    /** Age the oldest tracked prefetches (called on each new issue). */
    void agePrefetches();

    std::size_t _slwbCap;
    /** Slot-occupying MSHRs (every kind except Write-as-upgrade). */
    std::size_t _slwbOcc = 0;
    /** Pending transactions. See BlockTable's reference rule: no Mshr
     *  pointer is held across an insert into or erase from _mshrs. */
    BlockTable<Mshr> _mshrs;
    /** Writebacks awaiting their ack: a set (the value is unused). */
    BlockTable<std::uint8_t> _wbPending;
    std::deque<Addr> _recentPrefetches;  ///< issue-order ring for aging

    /** Tag-array port: serializes FLWB-side and fill accesses. */
    Resource _tagPort;

    /** Miss classification history: why a block last left the cache. */
    enum class Gone : std::uint8_t { Invalidated, Replaced };
    BlockTable<Gone> _history;

    std::vector<Addr> _candidateBuf; ///< scratch, avoids allocation

    /**
     * Does the attached scheme want the block-content view? Cached at
     * construction; when false the content path costs nothing and the
     * observation stream is byte-identical to earlier releases.
     */
    bool _wantContent = false;
    std::vector<std::uint8_t> _contentBuf; ///< scratch, one block

    /** Fault-hook opportunity counter (TestHooks::allowPageCrossPeriod). */
    std::uint64_t _hookCandidates = 0;
};

} // namespace psim

#endif // PSIM_MEM_SLC_HH
