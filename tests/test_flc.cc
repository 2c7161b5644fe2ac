/**
 * @file
 * Unit tests for the first-level cache: write-through, no-allocate,
 * direct-mapped, externally invalidatable.
 */

#include <gtest/gtest.h>

#include "mem/flc.hh"

using namespace psim;

namespace
{

MachineConfig
smallCfg()
{
    MachineConfig cfg;
    cfg.flcSize = 1024; // 32 blocks, direct-mapped
    return cfg;
}

} // namespace

TEST(Flc, ColdReadMissesThenHitsAfterFill)
{
    MachineConfig cfg = smallCfg();
    Flc flc(cfg);
    EXPECT_FALSE(flc.probeRead(0x100));
    flc.fill(0x100);
    EXPECT_TRUE(flc.probeRead(0x100));
    EXPECT_DOUBLE_EQ(flc.readMisses.value(), 1.0);
    EXPECT_DOUBLE_EQ(flc.reads.value(), 2.0);
}

TEST(Flc, WholeBlockHitsAfterFill)
{
    MachineConfig cfg = smallCfg();
    Flc flc(cfg);
    flc.fill(0x100);
    // Any word of the 32-byte block hits.
    EXPECT_TRUE(flc.probeRead(0x100));
    EXPECT_TRUE(flc.probeRead(0x108));
    EXPECT_TRUE(flc.probeRead(0x11F));
    EXPECT_FALSE(flc.probeRead(0x120)); // next block
}

TEST(Flc, WritesDoNotAllocate)
{
    MachineConfig cfg = smallCfg();
    Flc flc(cfg);
    flc.probeWrite(0x200);
    EXPECT_FALSE(flc.probeRead(0x200));
    EXPECT_DOUBLE_EQ(flc.writeMisses.value(), 1.0);
}

TEST(Flc, DirectMappedFillEvictsConflict)
{
    MachineConfig cfg = smallCfg(); // 1 KB: addresses 1 KB apart conflict
    Flc flc(cfg);
    flc.fill(0x000);
    flc.fill(0x400); // same set
    EXPECT_FALSE(flc.probeRead(0x000));
    EXPECT_TRUE(flc.probeRead(0x400));
}

TEST(Flc, InvalidationPinRemovesBlock)
{
    MachineConfig cfg = smallCfg();
    Flc flc(cfg);
    flc.fill(0x300);
    ASSERT_TRUE(flc.contains(0x300));
    flc.invalidate(0x300);
    EXPECT_FALSE(flc.contains(0x300));
    EXPECT_FALSE(flc.probeRead(0x300));
    EXPECT_DOUBLE_EQ(flc.invalidations.value(), 1.0);
}

TEST(Flc, InvalidateOfAbsentBlockIsNoop)
{
    MachineConfig cfg = smallCfg();
    Flc flc(cfg);
    flc.invalidate(0x300);
    EXPECT_DOUBLE_EQ(flc.invalidations.value(), 0.0);
}
