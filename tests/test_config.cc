/**
 * @file
 * Unit tests for the machine configuration (Table 1 defaults, address
 * helpers, round-robin page placement).
 */

#include <gtest/gtest.h>

#include "sim/config.hh"

using namespace psim;

TEST(Config, PaperDefaults)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.numProcs, 16u);
    EXPECT_EQ(cfg.blockSize, 32u);
    EXPECT_EQ(cfg.flcSize, 4096u);
    EXPECT_EQ(cfg.slcSize, 0u); // infinite by default
    EXPECT_EQ(cfg.pageSize, 4096u);
    EXPECT_EQ(cfg.flwbEntries, 8u);
    EXPECT_EQ(cfg.slwbEntries, 16u);
    EXPECT_EQ(cfg.flcReadLat, 1u);
    EXPECT_EQ(cfg.meshCols, 4u);
    EXPECT_EQ(cfg.meshRows(), 4u);
    EXPECT_EQ(cfg.flitBits, 32u);
    EXPECT_EQ(cfg.fallThrough, 3u);
    EXPECT_EQ(cfg.prefetch.degree, 1u);
    EXPECT_EQ(cfg.prefetch.rptEntries, 256u);
    EXPECT_EQ(cfg.prefetch.ddetEntries, 16u);
    EXPECT_EQ(cfg.prefetch.strideThreshold, 3u);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Config, BlockAndPageAlignment)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.blockAddr(0x1234), 0x1220u);
    EXPECT_EQ(cfg.blockAddr(0x1220), 0x1220u);
    EXPECT_EQ(cfg.pageAddr(0x12345), 0x12000u);
}

TEST(Config, RoundRobinHomes)
{
    MachineConfig cfg;
    for (unsigned page = 0; page < 64; ++page) {
        Addr a = static_cast<Addr>(page) * cfg.pageSize + 100;
        EXPECT_EQ(cfg.homeOf(a), page % cfg.numProcs);
    }
    // Every address within one page shares a home.
    EXPECT_EQ(cfg.homeOf(0x3000), cfg.homeOf(0x3FFF));
}

TEST(Config, FlitsForMessageSizes)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.flitsFor(0), 2u);   // header only
    EXPECT_EQ(cfg.flitsFor(32), 10u); // header + 8 data flits
    EXPECT_EQ(cfg.flitsFor(1), 3u);   // partial flit rounds up
}

TEST(Config, SchemeNamesRoundTrip)
{
    // One parse spelling per scheme: the names schemeNames() lists.
    EXPECT_EQ(parseScheme("none"), PrefetchScheme::None);
    EXPECT_EQ(parseScheme("seq"), PrefetchScheme::Sequential);
    EXPECT_EQ(parseScheme("idet"), PrefetchScheme::IDet);
    EXPECT_EQ(parseScheme("ddet"), PrefetchScheme::DDet);
    EXPECT_EQ(parseScheme("adaptive"), PrefetchScheme::Adaptive);
    EXPECT_EQ(parseScheme("idet-la"), PrefetchScheme::IDetLookahead);
    EXPECT_EQ(parseScheme("mstride"), PrefetchScheme::MultiStride);
    EXPECT_EQ(parseScheme("chase"), PrefetchScheme::PtrChase);
    EXPECT_EQ(parseScheme("ptron"), PrefetchScheme::Perceptron);
    EXPECT_EQ(schemeNames(), "none, seq, idet, ddet, adaptive, idet-la, "
                             "mstride, chase, ptron");
    EXPECT_STREQ(toString(PrefetchScheme::Sequential), "seq");
    EXPECT_STREQ(toString(PrefetchScheme::IDet), "i-det");
    EXPECT_STREQ(toString(PrefetchScheme::DDet), "d-det");
    EXPECT_STREQ(toString(PrefetchScheme::None), "baseline");
    EXPECT_STREQ(toString(PrefetchScheme::MultiStride), "m-stride");
    EXPECT_STREQ(toString(PrefetchScheme::PtrChase), "chase");
    EXPECT_STREQ(toString(PrefetchScheme::Perceptron), "ptron");
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, RejectsBadBlockSize)
{
    MachineConfig cfg;
    cfg.blockSize = 48;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
            "block size");
}

TEST(ConfigDeath, RejectsUntileableMesh)
{
    MachineConfig cfg;
    cfg.numProcs = 10;
    cfg.meshCols = 4;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
            "does not tile");
}

TEST(ConfigDeath, RejectsMoreThan64Nodes)
{
    // The directory presence mask is one 64-bit word.
    MachineConfig cfg;
    cfg.numProcs = 128;
    cfg.meshCols = 8;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
            "limit of 64 nodes");
}

TEST(ConfigDeath, RejectsZeroDegree)
{
    MachineConfig cfg;
    cfg.prefetch.degree = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "degree");
}

TEST(ConfigDeath, RejectsZeroLookahead)
{
    MachineConfig cfg;
    cfg.prefetch.scheme = PrefetchScheme::IDetLookahead;
    cfg.prefetch.lookaheadStrides = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
            "lookaheadStrides");
}

TEST(ConfigDeath, RejectsUnknownScheme)
{
    // The error must name the valid schemes (one registry drives the
    // parser, the printer and this message).
    EXPECT_EXIT(parseScheme("bogus"), ::testing::ExitedWithCode(1),
            "unknown prefetch scheme 'bogus' \\(valid: .*chase.*\\)");
}

TEST(ConfigDeath, RejectsFormerSchemeAlias)
{
    // A scheme has one spelling; the long forms do not parse.
    EXPECT_EXIT(parseScheme("sequential"), ::testing::ExitedWithCode(1),
            "unknown prefetch scheme 'sequential' \\(valid: none, seq, "
            "idet, ddet, adaptive, idet-la, mstride, chase, ptron\\)");
}
