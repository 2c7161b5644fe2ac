/**
 * @file
 * Counts the heap allocations of building and destroying a machine.
 *
 * The binary replaces the global operator new and delete with
 * malloc/free plus a counter that is switched on only around
 * `{ Machine m(cfg); }`. The statistics registry used to allocate for
 * every counter it held a pointer to; it now holds one group per
 * component, so a default 16-node machine costs a fixed, small number
 * of allocations whatever the scheme.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "sys/machine.hh"

namespace
{

bool counting = false;
unsigned long allocations = 0;

void *
allocate(std::size_t size)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using psim::Machine;
using psim::MachineConfig;
using psim::PrefetchScheme;

/** Allocations made building and destroying a machine for @p cfg. */
unsigned long
machineAllocations(const MachineConfig &cfg)
{
    allocations = 0;
    counting = true;
    {
        Machine m(cfg);
    }
    counting = false;
    return allocations;
}

class MachineAllocations : public ::testing::TestWithParam<PrefetchScheme>
{
};

TEST_P(MachineAllocations, DefaultMachineStaysUnder200)
{
    MachineConfig cfg;
    cfg.prefetch.scheme = GetParam();
    ASSERT_EQ(cfg.numProcs, 16u);
    const unsigned long n = machineAllocations(cfg);
    EXPECT_GT(n, 0u); // the counter is live
    EXPECT_LT(n, 200u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MachineAllocations,
        ::testing::Values(PrefetchScheme::None,
                          PrefetchScheme::Sequential,
                          PrefetchScheme::IDet));

} // namespace
