/**
 * @file
 * Open-addressed hash table keyed by block address.
 *
 * The per-block tables of the simulated machine's memory system are
 * these: the home directory and its wait queues; the SLC's MSHRs,
 * writeback set and miss-classification history; the infinite SLC's
 * block array (CacheArray); and the backing store's page table. The
 * lock and barrier controllers, the prefetchers' side tables (chase's
 * depths, ptron's pending issues), the Table-2 characterizer and the
 * observers (the audit's prefetch tracks, the chrome tracer's open
 * intervals) keep std::unordered_maps, off the per-block message
 * path. A node-based std::unordered_map pays a prime-modulo bucket
 * hash, a pointer chase per probe and an allocation per entry; this
 * table is two flat lanes instead:
 *
 *  - Keys and values are stored structure-of-arrays. A probe scans the
 *    dense 8-byte key lane and touches a value only on a hit.
 *  - Linear probing over a power-of-two capacity, indexed by a
 *    Fibonacci hash (one multiply, high bits). The odd multiplier is
 *    bijective, so power-of-two-strided block addresses still spread
 *    over the whole table.
 *  - kAddrInvalid marks an empty slot, so it can never be a key.
 *  - Storage is allocated on the first insertion (64 slots), so a table
 *    that is never used costs no allocation. The capacity doubles
 *    before an insertion would take the load above 0.7. It never
 *    shrinks.
 *  - Erase shifts later members of the probe chain back into the hole
 *    (no tombstones), so chains stay short on tables that churn.
 *
 * Reference rule: any insertion (operator[] on an absent key) or
 * erase() may move values, and so invalidates every pointer and
 * reference into the table. Lookups and updates in place never do.
 * Callers must not hold a V* or V& across an insert into, or an erase
 * from, the same table.
 *
 * forEach() visits the live entries in slot order, which depends on the
 * hash and the capacity: callers must treat it as unordered.
 */

#ifndef PSIM_SIM_BLOCK_TABLE_HH
#define PSIM_SIM_BLOCK_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

template <typename V>
class BlockTable
{
  public:
    /** Capacity allocated by the first insertion. */
    static constexpr std::size_t kInitialSlots = 64;

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _keys.size(); }

    /** The value stored for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        std::size_t i = slotOf(key);
        return i == kNoSlot ? nullptr : &_vals[i];
    }

    const V *
    find(Addr key) const
    {
        return const_cast<BlockTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return slotOf(key) != kNoSlot; }

    /** The key of the entry whose value @p v points at. */
    Addr
    keyOf(const V *v) const
    {
        return _keys[static_cast<std::size_t>(v - _vals.data())];
    }

    /**
     * Apply @p fn(key, value) to every entry, in no specified order.
     * @p fn must not insert into or erase from this table.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _keys.size(); ++i) {
            if (_keys[i] != kAddrInvalid)
                fn(_keys[i], _vals[i]);
        }
    }

    /**
     * The value stored for @p key, value-initialized and inserted if
     * absent (which may grow the table: see the reference rule).
     * @pre key != kAddrInvalid
     */
    V &
    operator[](Addr key)
    {
        if (_keys.empty())
            return insertSlow(key);
        const std::size_t mask = _keys.size() - 1;
        std::size_t i = home(key);
        while (_keys[i] != kAddrInvalid) {
            if (_keys[i] == key)
                return _vals[i];
            i = (i + 1) & mask;
        }
        if (key == kAddrInvalid || (_size + 1) * 10 > _keys.size() * 7)
            return insertSlow(key);
        _keys[i] = key;
        ++_size;
        return _vals[i];
    }

    /**
     * Remove @p key (and reset its value). Later members of its probe
     * chain move back one step: see the reference rule.
     * @return whether the key was present
     */
    bool
    erase(Addr key)
    {
        std::size_t hole = slotOf(key);
        if (hole == kNoSlot)
            return false;
        const std::size_t mask = _keys.size() - 1;
        for (std::size_t j = (hole + 1) & mask; _keys[j] != kAddrInvalid;
             j = (j + 1) & mask) {
            // Slot j's key may fill the hole only if the hole lies on
            // its probe path, i.e. between its home slot and j.
            std::size_t h = home(_keys[j]);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                _keys[hole] = _keys[j];
                _vals[hole] = std::move(_vals[j]);
                hole = j;
            }
        }
        _keys[hole] = kAddrInvalid;
        _vals[hole] = V{};
        --_size;
        return true;
    }

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

    /** Slot holding @p key, or kNoSlot. */
    std::size_t
    slotOf(Addr key) const
    {
        if (_size == 0)
            return kNoSlot;
        const std::size_t mask = _keys.size() - 1;
        const Addr *keys = _keys.data();
        std::size_t i = home(key);
        while (keys[i] != kAddrInvalid) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNoSlot;
    }

    /**
     * Insert an absent @p key that needs the first allocation, growth
     * or the reserved-key check. Kept out of line so the probe loop of
     * operator[] stays small enough to inline.
     */
    [[gnu::noinline]] V &
    insertSlow(Addr key)
    {
        psim_assert(key != kAddrInvalid,
                "kAddrInvalid cannot be a block-table key");
        if (_keys.empty()) {
            resize(kInitialSlots);
        } else {
            // Double the capacity and rehash.
            std::vector<Addr> keys = std::move(_keys);
            std::vector<V> vals = std::move(_vals);
            resize(keys.size() * 2);
            _size = 0;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (keys[i] != kAddrInvalid)
                    place(keys[i]) = std::move(vals[i]);
            }
        }
        return place(key);
    }

    /** Insert an absent @p key without a load check. */
    V &
    place(Addr key)
    {
        const std::size_t mask = _keys.size() - 1;
        std::size_t i = home(key);
        while (_keys[i] != kAddrInvalid)
            i = (i + 1) & mask;
        _keys[i] = key;
        ++_size;
        return _vals[i];
    }

    void
    resize(std::size_t slots)
    {
        _keys.assign(slots, kAddrInvalid);
        _vals.clear();
        _vals.resize(slots);
        _shift = 64 - log2Exact(slots);
    }

    std::vector<Addr> _keys;
    std::vector<V> _vals;
    std::size_t _size = 0;
    unsigned _shift = 0; ///< 64 - log2(capacity)
};

} // namespace psim

#endif // PSIM_SIM_BLOCK_TABLE_HH
