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
 * The page table is a BlockTable keyed by page base address; a write
 * to an absent page inserts a zeroed one. Pages are heap-allocated and
 * never removed, so a page pointer, once obtained, stays valid for the
 * store's lifetime even when the table grows and moves its entries.
 */

#ifndef PSIM_MEM_BACKING_STORE_HH
#define PSIM_MEM_BACKING_STORE_HH

#include <cstring>
#include <memory>
#include <type_traits>

#include "sim/block_table.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

class BackingStore
{
  public:
    BackingStore() = default;
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

    static constexpr unsigned pageSize() { return MachineConfig::pageSize; }

    /** Copy every materialized page of @p src into this empty store. */
    void
    copyPagesFrom(const BackingStore &src)
    {
        psim_assert(_pages.size() == 0,
                "copyPagesFrom into a non-empty store");
        src._pages.forEach([this](Addr base, const Page &page) {
            Page &copy = _pages[base];
            copy = std::make_unique_for_overwrite<std::uint8_t[]>(pageSize());
            std::memcpy(copy.get(), page.get(), pageSize());
        });
    }

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
        _pages.forEach([&](Addr base, const Page &page) {
            const std::uint8_t *bytes = page.get();
            fn(base, bytes, pageSize());
        });
    }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    void
    checkSamePage(Addr addr, unsigned len) const
    {
        psim_assert(alignDown(addr, pageSize()) ==
                    alignDown(addr + len - 1, pageSize()),
                    "access crosses a page boundary");
    }

    std::size_t offset(Addr addr) const { return addr & (pageSize() - 1); }

    const std::uint8_t *
    findPage(Addr addr) const
    {
        const Page *page = _pages.find(alignDown(addr, pageSize()));
        return page ? page->get() : nullptr;
    }

    std::uint8_t *
    ensurePage(Addr addr)
    {
        Page &page = _pages[alignDown(addr, pageSize())];
        if (!page)
            page = std::make_unique<std::uint8_t[]>(pageSize());
        return page.get();
    }

    BlockTable<Page> _pages;
};

} // namespace psim

#endif // PSIM_MEM_BACKING_STORE_HH
