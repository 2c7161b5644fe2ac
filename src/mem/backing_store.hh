/**
 * @file
 * Functional backing store for the simulated shared address space.
 *
 * psim is a program-driven simulator: the workloads really compute, so
 * loads must return real values. The store is sparse (per-page chunks)
 * and purely functional -- timing lives entirely in the architectural
 * models. Typed accessors require naturally aligned accesses, which is
 * what the workloads (and SPARC, the paper's ISA) generate.
 *
 * The page table is a fixed-size bucket array of singly linked chains;
 * a miss pushes a zeroed page onto the front of its chain. Pages are
 * never removed, so a page pointer, once obtained, stays valid for the
 * store's lifetime.
 */

#ifndef PSIM_MEM_BACKING_STORE_HH
#define PSIM_MEM_BACKING_STORE_HH

#include <array>
#include <cstring>
#include <memory>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

class BackingStore
{
  public:
    explicit BackingStore(unsigned page_size = 4096)
        : _pageSize(page_size)
    {
        psim_assert(isPowerOf2(page_size), "page size must be power of 2");
    }

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Read @p len bytes at @p addr (must not cross a page). */
    void
    read(Addr addr, void *dst, unsigned len) const
    {
        const std::uint8_t *page = findPage(addr);
        if (!page) {
            std::memset(dst, 0, len);
            return;
        }
        std::memcpy(dst, page + offset(addr), len);
    }

    /** Write @p len bytes at @p addr (must not cross a page). */
    void
    write(Addr addr, const void *src, unsigned len)
    {
        std::memcpy(ensurePage(addr) + offset(addr), src, len);
    }

    /** Typed aligned load. */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        psim_assert(addr % alignof(T) == 0, "misaligned load of %zu at %llx",
                    sizeof(T), (unsigned long long)addr);
        checkSamePage(addr, sizeof(T));
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed aligned store. */
    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        psim_assert(addr % alignof(T) == 0, "misaligned store of %zu at %llx",
                    sizeof(T), (unsigned long long)addr);
        checkSamePage(addr, sizeof(T));
        write(addr, &v, sizeof(T));
    }

    unsigned pageSize() const { return _pageSize; }

    /**
     * Visit every materialized page as (base address, page bytes).
     * Unmaterialized pages read as zero; a visitor that treats absence
     * as zeros (as the differential oracle does) sees the whole image.
     * Iteration order is unspecified.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &head : _buckets) {
            for (const PageNode *n = head.get(); n; n = n->next.get())
                fn(n->base, n->data.get(), _pageSize);
        }
    }

  private:
    struct PageNode
    {
        Addr base;
        std::unique_ptr<PageNode> next;
        std::unique_ptr<std::uint8_t[]> data;
    };

    static constexpr std::size_t kBuckets = 1024;

    void
    checkSamePage(Addr addr, unsigned len) const
    {
        psim_assert(alignDown(addr, _pageSize) ==
                    alignDown(addr + len - 1, _pageSize),
                    "access crosses a page boundary");
    }

    std::size_t offset(Addr addr) const { return addr & (_pageSize - 1); }

    std::size_t
    bucketOf(Addr base) const
    {
        std::uint64_t x = base / _pageSize;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x) & (kBuckets - 1);
    }

    const std::uint8_t *
    findPage(Addr addr) const
    {
        Addr base = alignDown(addr, _pageSize);
        for (const PageNode *n = _buckets[bucketOf(base)].get(); n;
             n = n->next.get()) {
            if (n->base == base)
                return n->data.get();
        }
        return nullptr;
    }

    std::uint8_t *
    ensurePage(Addr addr)
    {
        Addr base = alignDown(addr, _pageSize);
        std::unique_ptr<PageNode> &head = _buckets[bucketOf(base)];
        for (PageNode *n = head.get(); n; n = n->next.get()) {
            if (n->base == base)
                return n->data.get();
        }
        auto fresh = std::make_unique<PageNode>();
        fresh->base = base;
        fresh->next = std::move(head);
        fresh->data = std::make_unique<std::uint8_t[]>(_pageSize);
        head = std::move(fresh);
        return head->data.get();
    }

    unsigned _pageSize;
    std::array<std::unique_ptr<PageNode>, kBuckets> _buckets;
};

} // namespace psim

#endif // PSIM_MEM_BACKING_STORE_HH
