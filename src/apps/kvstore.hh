/**
 * @file
 * In-memory key-value store server workload.
 *
 * Each simulated processor owns one partition of the store: an
 * open-addressed hash table (linear probing, tombstone deletes) whose
 * live slots are threaded on an intrusive doubly-linked LRU list. A
 * seeded Zipfian request stream (src/apps/reqgen.hh) drives GETs and
 * PUTs against the partition; PUT beyond the occupancy bound evicts
 * the LRU tail, leaving a tombstone. Between request epochs every
 * thread scans its neighbour's partition read-only (the "replication
 * pull"), which is what creates cross-node coherence traffic.
 *
 * Access-pattern mix: scattered probes (hash order), pointer chasing
 * (LRU links), a sequential sweep (the neighbour scan), and a
 * shared read-only routing directory -- the server-side patterns the
 * PAPERS.md prefetching survey says SPLASH-style kernels lack.
 *
 * DRF by construction: writes touch only the owner's partition;
 * cross-thread reads are barrier-separated from the writes they
 * observe. Verification replays the identical request streams on a
 * native model of every partition and compares all slots, LRU heads,
 * and counters exactly.
 */

#ifndef PSIM_APPS_KVSTORE_HH
#define PSIM_APPS_KVSTORE_HH

#include <cstdint>
#include <vector>

#include "apps/reqgen.hh"
#include "apps/workload.hh"

namespace psim::apps
{

class KvStoreWorkload : public Workload
{
  public:
    explicit KvStoreWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

  private:
    /** LRU/occupancy state a serving thread carries between requests. */
    struct Cursor
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        std::uint32_t entries = 0;
        std::uint32_t tombs = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evicts = 0;
        std::uint64_t scanSum = 0;
        std::uint64_t dirAcc = 0;
    };

    /** Native model of one partition: Cursor plus the slot arrays. */
    struct State : Cursor
    {
        std::vector<std::uint64_t> key;
        std::vector<std::uint64_t> val;
        std::vector<std::uint32_t> prev;
        std::vector<std::uint32_t> next;
    };

    // ---- native model (mirrors the coroutine ops write-for-write) ----
    void modelLruUnlink(State &s, std::uint32_t i) const;
    void modelLruPushFront(State &s, std::uint32_t i) const;
    void modelGet(State &s, std::uint64_t key) const;
    void modelPut(State &s, std::uint64_t key, std::uint64_t val) const;

    // ---- simulated ops (sub-coroutines awaited by thread()) ----
    Task lruUnlink(ThreadCtx &ctx, Addr base, std::uint32_t i,
                   Cursor *c);
    Task lruPushFront(ThreadCtx &ctx, Addr base, std::uint32_t i,
                      Cursor *c);
    Task doGet(ThreadCtx &ctx, Addr base, std::uint64_t key, Cursor *c);
    Task doPut(ThreadCtx &ctx, Addr base, std::uint64_t key,
               std::uint64_t val, Cursor *c);

    Addr slotAddr(Addr base, std::uint32_t i) const;
    Addr partitionBase(unsigned t) const;

    unsigned _cap = 0;       ///< slots per partition (power of two)
    std::uint64_t _nkeys = 0; ///< key-space size (power of two)
    std::uint64_t _perEpoch = 0; ///< requests per thread per epoch
    std::uint64_t _seed = 0;
    Tick _interArrival = 0;
    double _theta = 0.99;

    Addr _slots = 0;
    Addr _hdr = 0;
    Addr _dir = 0;
    Addr _bar = 0;

    std::unique_ptr<ZipfSampler> _zipf;
    std::vector<Cursor> _start; ///< post-preload cursors (thread inputs)
    std::vector<State> _ref;    ///< final expected per-partition state
};

} // namespace psim::apps

#endif // PSIM_APPS_KVSTORE_HH
