/**
 * @file
 * Unit tests for the perceptron prefetch filter: pass-through at zero
 * weights, suppression learned from useless fates, the deterministic
 * exploration probe, re-learning from useful probes, and the margin
 * rule stopping training once confident.
 */

#include <gtest/gtest.h>

#include "core/ptron.hh"

using namespace psim;

namespace
{

constexpr unsigned kBlock = 32;
constexpr Pc kPc = 0x4000;
constexpr Addr kTrig = 0x10000;
constexpr Addr kCand = 0x10020;

/** A base scheme that proposes one fixed candidate per observation. */
class FixedBase : public Prefetcher
{
  public:
    explicit FixedBase(Addr cand) : _cand(cand) {}

    void
    observeRead(const ReadObservation &, std::vector<Addr> &out) override
    {
        out.push_back(_cand);
    }

  private:
    Addr _cand;
};

PerceptronFilter
makeFilter()
{
    return PerceptronFilter(kBlock, std::make_unique<FixedBase>(kCand));
}

std::vector<Addr>
observe(PerceptronFilter &pf)
{
    std::vector<Addr> out;
    ReadObservation obs;
    obs.pc = kPc;
    obs.addr = kTrig;
    pf.observeRead(obs, out);
    return out;
}

} // namespace

TEST(Ptron, ZeroWeightsPassCandidatesThrough)
{
    PerceptronFilter pf = makeFilter();
    auto out = observe(pf);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], kCand);
    EXPECT_DOUBLE_EQ(pf.suppressed.value(), 0.0);
}

TEST(Ptron, WantsOutcomeFeedback)
{
    PerceptronFilter pf = makeFilter();
    EXPECT_TRUE(pf.wantsOutcomeFeedback());
}

TEST(Ptron, UselessFateLearnsSuppression)
{
    PerceptronFilter pf = makeFilter();
    auto out = observe(pf);
    ASSERT_EQ(out.size(), 1u);
    // The cache reports the issued prefetch died unreferenced.
    pf.notePrefetchOutcome(false, false, kCand);
    EXPECT_DOUBLE_EQ(pf.trainDown.value(), 1.0);

    // All four features moved down: the same candidate now scores
    // negative and is suppressed.
    out = observe(pf);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(pf.suppressed.value(), 1.0);
}

TEST(Ptron, FateForUnknownBlockTrainsNothing)
{
    PerceptronFilter pf = makeFilter();
    observe(pf);
    pf.notePrefetchOutcome(false, false, 0xdead0000);
    EXPECT_DOUBLE_EQ(pf.trainDown.value(), 0.0);
    EXPECT_DOUBLE_EQ(pf.trainUp.value(), 0.0);
}

TEST(Ptron, EverySixteenthSuppressedCandidateProbes)
{
    PerceptronFilter pf = makeFilter();
    observe(pf);
    pf.notePrefetchOutcome(false, false, kCand); // sum now -4
    unsigned issued = 0;
    for (unsigned i = 0; i < PerceptronFilter::kProbePeriod; ++i)
        issued += observe(pf).size();
    EXPECT_EQ(issued, 1u); // exactly the 16th slips through
    EXPECT_DOUBLE_EQ(pf.probes.value(), 1.0);
    EXPECT_DOUBLE_EQ(pf.suppressed.value(), 16.0);
}

TEST(Ptron, UsefulProbeRehabilitatesTheCandidate)
{
    PerceptronFilter pf = makeFilter();
    observe(pf);
    pf.notePrefetchOutcome(false, false, kCand); // suppressed (-4)

    // Run until the probe issues, then report it useful: the wrong
    // suppression retrains the weights back above zero.
    for (unsigned i = 0; i < PerceptronFilter::kProbePeriod; ++i) {
        if (!observe(pf).empty())
            pf.notePrefetchOutcome(true, false, kCand);
    }
    EXPECT_DOUBLE_EQ(pf.trainUp.value(), 1.0);
    auto out = observe(pf);
    ASSERT_EQ(out.size(), 1u); // sum back to 0: allowed again
}

TEST(Ptron, MarginRuleStopsTrainingWhenConfident)
{
    // Useful fates train while |sum| <= theta; once past the margin a
    // correct prediction updates nothing.
    static_assert(PerceptronFilter::kTheta == 8);
    PerceptronFilter pf = makeFilter();
    for (unsigned i = 0; i < 5; ++i) {
        auto out = observe(pf);
        ASSERT_EQ(out.size(), 1u);
        pf.notePrefetchOutcome(true, false, kCand);
    }
    // Sum walks 0 -> 4 -> 8 -> 12 (three updates), then saturates.
    EXPECT_DOUBLE_EQ(pf.trainUp.value(), 3.0);
    ReadObservation obs;
    obs.pc = kPc;
    obs.addr = kTrig;
    EXPECT_EQ(pf.scoreFor(obs, kCand), 12);
}
