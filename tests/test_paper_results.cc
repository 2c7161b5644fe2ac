/**
 * @file
 * Regression guard for the paper's headline results: these assertions
 * encode the *shape* of Figure 6 and Tables 2-3 so that a substrate or
 * scheme change that silently breaks the reproduction fails CI.
 *
 * All runs use the full 16-processor paper configuration and are
 * numerically verified.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/driver.hh"

using namespace psim;
using namespace psim::apps;

namespace
{

RunMetrics
metricsOf(const char *workload, PrefetchScheme scheme,
          unsigned slc_size = 0)
{
    MachineConfig cfg;
    cfg.prefetch.scheme = scheme;
    cfg.slcSize = slc_size;
    psim::apps::Run run = runWorkload(workload, cfg);
    EXPECT_TRUE(run.finished) << workload;
    EXPECT_TRUE(run.verified) << workload;
    return run.metrics;
}

} // namespace

TEST(PaperResults, LuSequentialBeatsStride)
{
    // Figure 6 top, LU: Seq < I-det < D-det < baseline, and all three
    // schemes remove most misses.
    auto base = metricsOf("lu", PrefetchScheme::None);
    auto seq = metricsOf("lu", PrefetchScheme::Sequential);
    auto idet = metricsOf("lu", PrefetchScheme::IDet);
    auto ddet = metricsOf("lu", PrefetchScheme::DDet);
    EXPECT_LT(seq.readMisses, idet.readMisses);
    EXPECT_LT(idet.readMisses, ddet.readMisses);
    EXPECT_LT(ddet.readMisses, base.readMisses * 0.6);
    EXPECT_LT(seq.readMisses, base.readMisses * 0.25);
}

TEST(PaperResults, OceanIsWhereStridePrefetchingWins)
{
    // Figure 6, Ocean: the large-stride application. Stride schemes
    // remove far more misses than sequential, sequential's efficiency
    // collapses, and its extra traffic makes read stall WORSE.
    auto base = metricsOf("ocean", PrefetchScheme::None);
    auto seq = metricsOf("ocean", PrefetchScheme::Sequential);
    auto idet = metricsOf("ocean", PrefetchScheme::IDet);
    EXPECT_LT(idet.readMisses, seq.readMisses * 0.6);
    EXPECT_LT(seq.prefetchEfficiency(), 0.4);
    EXPECT_GT(idet.prefetchEfficiency(), 0.9);
    EXPECT_GT(seq.readStall, base.readStall * 0.98);
    EXPECT_LT(idet.readStall, base.readStall * 0.9);
    EXPECT_GT(seq.flits, idet.flits);
}

TEST(PaperResults, Mp3dSequentialExploitsSpatialLocality)
{
    // Figure 6, MP3D: few stride sequences, so stride prefetching
    // barely helps, while sequential prefetching removes far more
    // misses through record-straddling spatial locality.
    auto base = metricsOf("mp3d", PrefetchScheme::None);
    auto seq = metricsOf("mp3d", PrefetchScheme::Sequential);
    auto idet = metricsOf("mp3d", PrefetchScheme::IDet);
    EXPECT_GT(idet.readMisses, base.readMisses * 0.8);
    EXPECT_LT(seq.readMisses, base.readMisses * 0.7);
    EXPECT_LT(seq.readMisses, idet.readMisses);
}

TEST(PaperResults, PthorResistsAllSchemes)
{
    // Figure 6, PTHOR: pointer chasing defeats everything.
    auto base = metricsOf("pthor", PrefetchScheme::None);
    for (auto s : {PrefetchScheme::Sequential, PrefetchScheme::IDet,
                   PrefetchScheme::DDet}) {
        auto mx = metricsOf("pthor", s);
        EXPECT_GT(mx.readMisses, base.readMisses * 0.75)
                << toString(s);
    }
}

TEST(PaperResults, IDetHasTheBestEfficiencyOnLowLocalityApps)
{
    // Figure 6 middle: I-detection stays selective where the others
    // waste fetches.
    for (const char *app : {"mp3d", "ocean", "pthor"}) {
        auto idet = metricsOf(app, PrefetchScheme::IDet);
        auto seq = metricsOf(app, PrefetchScheme::Sequential);
        EXPECT_GT(idet.prefetchEfficiency(),
                  seq.prefetchEfficiency()) << app;
        EXPECT_GT(idet.prefetchEfficiency(), 0.7) << app;
    }
}

TEST(PaperResults, FiniteSlcAddsStride1ReplacementMissesToMp3d)
{
    // Table 3's key observation, measured end to end: a 16 KB SLC
    // gives MP3D a large replacement-miss population...
    auto inf = metricsOf("mp3d", PrefetchScheme::None, 0);
    auto fin = metricsOf("mp3d", PrefetchScheme::None, 16384);
    EXPECT_DOUBLE_EQ(inf.missesReplacement, 0.0);
    EXPECT_GT(fin.missesReplacement, fin.readMisses * 0.3);
    // ...which prefetching then attacks (both schemes improve).
    auto fin_seq = metricsOf("mp3d", PrefetchScheme::Sequential, 16384);
    EXPECT_LT(fin_seq.readMisses, fin.readMisses * 0.75);
}

TEST(PaperResults, InfiniteSlcHasOnlyColdAndCoherenceMisses)
{
    // Iterative applications re-read data invalidated by other
    // processors every step: coherence misses. (LU is different: its
    // pivot columns are written once and read once, so its misses are
    // virtually all cold.)
    for (const char *app : {"ocean", "water"}) {
        auto mx = metricsOf(app, PrefetchScheme::None);
        EXPECT_DOUBLE_EQ(mx.missesReplacement, 0.0) << app;
        EXPECT_GT(mx.missesCoherence, 0.0) << app;
        EXPECT_GT(mx.missesCold, 0.0) << app;
    }
    auto lu = metricsOf("lu", PrefetchScheme::None);
    EXPECT_DOUBLE_EQ(lu.missesReplacement, 0.0);
    EXPECT_GT(lu.missesCold, 0.0);
}

TEST(PaperResults, Table2CharacteristicsShape)
{
    // The Table-2 ordering of stride-miss fractions:
    // LU/Cholesky/Water high, Ocean high with a large stride,
    // MP3D and PTHOR low with small strides.
    std::map<std::string, StrideCharacterizer::Report> reports;
    for (const char *app : {"lu", "water", "ocean", "mp3d", "pthor"}) {
        MachineConfig cfg;
        RunOptions opts;
        opts.characterize = true;
        psim::apps::Run run = runWorkload(app, cfg, opts);
        ASSERT_TRUE(run.finished && run.verified) << app;
        reports[app] = run.machine->characterizer()->finalize();
    }
    EXPECT_GT(reports["lu"].strideFraction, 0.8);
    EXPECT_GT(reports["water"].strideFraction, 0.8);
    EXPECT_GT(reports["ocean"].strideFraction, 0.6);
    EXPECT_LT(reports["mp3d"].strideFraction, 0.4);
    EXPECT_LT(reports["pthor"].strideFraction, 0.3);

    ASSERT_FALSE(reports["lu"].topStrides.empty());
    EXPECT_EQ(reports["lu"].topStrides[0].first, 1);
    ASSERT_FALSE(reports["water"].topStrides.empty());
    EXPECT_EQ(reports["water"].topStrides[0].first, 21);
    ASSERT_FALSE(reports["ocean"].topStrides.empty());
    EXPECT_GE(reports["ocean"].topStrides[0].first, 16)
            << "Ocean's dominant stride must be many blocks";
}

TEST(PaperResults, AdaptiveFixesSequentialsOceanTraffic)
{
    // The Section-6 extension: adaptive sequential prefetching must
    // not show fixed-sequential's Ocean pathology.
    auto base = metricsOf("ocean", PrefetchScheme::None);
    auto seq = metricsOf("ocean", PrefetchScheme::Sequential);
    auto ad = metricsOf("ocean", PrefetchScheme::Adaptive);
    EXPECT_LT(ad.flits, seq.flits * 0.9);
    EXPECT_LE(ad.readStall, base.readStall * 1.02);
}

TEST(PaperResults, LookaheadAndTaggedIdetAreClose)
{
    // Section 6: "the performance difference between the two is small".
    auto idet = metricsOf("lu", PrefetchScheme::IDet);
    MachineConfig cfg;
    cfg.prefetch.scheme = PrefetchScheme::IDetLookahead;
    cfg.prefetch.lookaheadStrides = 1;
    psim::apps::Run la = runWorkload("lu", cfg);
    ASSERT_TRUE(la.finished && la.verified);
    double ratio = la.metrics.readMisses / idet.readMisses;
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.4);
}
