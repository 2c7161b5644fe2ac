/**
 * @file
 * Contract tests for the server-suite request generator: Zipfian key
 * popularity with the right skew, open-loop arrival gaps that are a
 * pure function of (seed, thread, index), and a bijective rank
 * scramble. These properties are what make the server workloads
 * deterministic at every --jobs count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/reqgen.hh"
#include "sim/random.hh"

using namespace psim;
using namespace psim::apps;

namespace
{

/** Empirical rank histogram over @p draws samples from one sampler. */
std::vector<double>
rankFrequencies(const ZipfSampler &zipf, std::uint64_t draws,
                std::uint64_t rngSeed)
{
    std::vector<double> freq(zipf.n(), 0.0);
    Rng rng(rngSeed);
    for (std::uint64_t i = 0; i < draws; ++i)
        freq[zipf.sample(rng.real())] += 1.0;
    for (double &f : freq)
        f /= static_cast<double>(draws);
    return freq;
}

} // namespace

TEST(Zipf, EmpiricalFrequenciesMatchTheTargetSkew)
{
    // P(rank i) = (1/(i+1)^theta) / zeta(n, theta). With 200k draws
    // the head ranks have thousands of hits each. Ranks 0 and 1 are
    // exact branches of the Gray et al. sampler, so 10% relative
    // tolerance catches a wrong exponent there (theta=0.6 vs 0.99
    // differ by ~24% on the rank-0/rank-1 ratio); deeper ranks go
    // through the continuous inverse-CDF approximation, which is
    // biased by up to ~20% at rank 2, hence the looser bound.
    constexpr std::uint64_t kRanks = 1024;
    constexpr std::uint64_t kDraws = 200000;
    for (double theta : {0.6, 0.99}) {
        ZipfSampler zipf(kRanks, theta);
        auto freq = rankFrequencies(zipf, kDraws, 12345);
        double zetan = 0;
        for (std::uint64_t i = 1; i <= kRanks; ++i)
            zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        for (std::uint64_t rank : {0ull, 1ull, 2ull, 7ull}) {
            const double expect =
                    1.0 /
                    std::pow(static_cast<double>(rank + 1), theta) / zetan;
            const double tol = rank < 2 ? 0.10 : 0.25;
            EXPECT_NEAR(freq[rank], expect, expect * tol)
                    << "theta " << theta << " rank " << rank;
        }
        // The tail must be monotonically colder than the head.
        EXPECT_GT(freq[0], freq[15]) << "theta " << theta;
        EXPECT_GT(freq[15], freq[255] + freq[511]) << "theta " << theta;
    }
}

TEST(Zipf, HigherThetaIsMoreSkewed)
{
    constexpr std::uint64_t kRanks = 1024;
    ZipfSampler mild(kRanks, 0.6), hot(kRanks, 0.99);
    auto fMild = rankFrequencies(mild, 100000, 7);
    auto fHot = rankFrequencies(hot, 100000, 7);
    EXPECT_GT(fHot[0], fMild[0]);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    constexpr std::uint64_t kRanks = 64;
    ZipfSampler zipf(kRanks, 0.0);
    auto freq = rankFrequencies(zipf, 100000, 99);
    for (std::uint64_t r = 0; r < kRanks; ++r)
        EXPECT_NEAR(freq[r], 1.0 / kRanks, 0.25 / kRanks) << "rank " << r;
}

TEST(ReqGen, StreamsAreDeterministicAndPerThread)
{
    constexpr std::uint64_t kKeys = 4096;
    ZipfSampler zipf(kKeys, 0.99);
    ReqGenParams p;
    p.seed = 42;
    p.keys = kKeys;
    p.theta = 0.99;
    p.writeFraction = 0.3;
    p.interArrival = 16;

    p.thread = 3;
    RequestGen a(p, zipf), b(p, zipf);
    // Two independently constructed generators with the same params
    // must agree request-for-request, in any evaluation order.
    for (std::uint64_t r = 0; r < 512; ++r)
        EXPECT_TRUE(a.at(r) == b.at(r)) << "request " << r;
    for (std::uint64_t r = 512; r-- > 0;)
        EXPECT_TRUE(a.at(r) == b.at(r)) << "request " << r;

    // A different thread id must yield a different stream.
    p.thread = 4;
    RequestGen other(p, zipf);
    unsigned same = 0;
    for (std::uint64_t r = 0; r < 512; ++r)
        same += a.at(r) == other.at(r) ? 1 : 0;
    EXPECT_LT(same, 8u) << "thread streams are not independent";
}

TEST(ReqGen, OpenLoopArrivalGapsAreBoundedWithTheRightMean)
{
    constexpr std::uint64_t kKeys = 1024;
    constexpr Tick kInterArrival = 16;
    ZipfSampler zipf(kKeys, 0.6);
    ReqGenParams p;
    p.seed = 7;
    p.thread = 0;
    p.keys = kKeys;
    p.theta = 0.6;
    p.interArrival = kInterArrival;
    RequestGen gen(p, zipf);

    constexpr std::uint64_t kN = 20000;
    double sum = 0;
    for (std::uint64_t r = 0; r < kN; ++r) {
        const Tick gap = gen.at(r).think;
        ASSERT_GE(gap, 1u) << "request " << r;
        ASSERT_LE(gap, 2 * kInterArrival - 1) << "request " << r;
        sum += static_cast<double>(gap);
    }
    // Uniform over [1, 2*ia - 1] has mean exactly ia.
    EXPECT_NEAR(sum / kN, static_cast<double>(kInterArrival), 0.25);

    // interArrival = 0 disables gaps entirely (closed-loop mode).
    p.interArrival = 0;
    RequestGen closed(p, zipf);
    for (std::uint64_t r = 0; r < 64; ++r)
        EXPECT_EQ(closed.at(r).think, 0u);
}

TEST(ReqGen, WriteFractionIsHonoured)
{
    constexpr std::uint64_t kKeys = 1024;
    ZipfSampler zipf(kKeys, 0.99);
    ReqGenParams p;
    p.seed = 11;
    p.keys = kKeys;
    p.theta = 0.99;
    p.writeFraction = 0.3;
    RequestGen gen(p, zipf);
    std::uint64_t writes = 0;
    constexpr std::uint64_t kN = 20000;
    for (std::uint64_t r = 0; r < kN; ++r)
        writes += gen.at(r).op == Request::Op::Write ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / kN, 0.3, 0.02);
}

TEST(ReqGen, ScrambleIsABijectionOverThePowerOfTwoKeySpace)
{
    for (std::uint64_t keys : {64ull, 1024ull, 65536ull}) {
        std::vector<bool> seen(keys, false);
        for (std::uint64_t rank = 0; rank < keys; ++rank) {
            const std::uint64_t k = scrambleRank(rank, keys);
            ASSERT_LT(k, keys);
            ASSERT_FALSE(seen[k]) << "collision at rank " << rank
                                  << " for keys=" << keys;
            seen[k] = true;
        }
    }
    // Adjacent hot ranks must not land in adjacent keys (that would
    // re-concentrate the Zipf head onto shared cache blocks).
    const std::uint64_t k0 = scrambleRank(0, 1024);
    const std::uint64_t k1 = scrambleRank(1, 1024);
    const std::uint64_t k2 = scrambleRank(2, 1024);
    EXPECT_GT(std::max(k0, k1) - std::min(k0, k1), 8u);
    EXPECT_GT(std::max(k1, k2) - std::min(k1, k2), 8u);
}
