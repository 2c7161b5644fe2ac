/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "sim/stats.hh"

using namespace psim::stats;

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 2;
    EXPECT_EQ(s.value(), 3u);
    s = 0;
    EXPECT_EQ(s.value(), 0u);
    s = 7;
    EXPECT_EQ(s.value(), 7u);
}

// A count takes no fraction: feeding it a double does not compile.
template <typename T>
constexpr bool kAddable = requires(Scalar s, T v) { s += v; };
template <typename T>
constexpr bool kAssignable = requires(Scalar s, T v) { s = v; };
static_assert(kAddable<int> && kAddable<std::uint64_t>);
static_assert(!kAddable<double> && !kAddable<float>);
static_assert(kAssignable<std::uint64_t> && !kAssignable<double>);

// A count is exact past 2^53, where a double would round it.
TEST(Scalar, CountsExactlyPastTwoToThe53)
{
    Scalar s;
    s = std::uint64_t{1} << 53;
    ++s;
    EXPECT_EQ(s.value() - (std::uint64_t{1} << 53), 1u);
}

TEST(Average, TracksMeanMinMaxCount)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    a.sample(9);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 15.0);
}

TEST(Average, SingleSampleIsMinAndMax)
{
    Average a;
    a.sample(-3);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), -3.0);
    EXPECT_DOUBLE_EQ(a.mean(), -3.0);
}

namespace
{

/** Two statistics, visited as a component visits its own. */
struct Component
{
    Scalar answer, waitTicks;
    Average lat;

    void
    visitStats(Visitor &v) const
    {
        v.scalar("answer", "the answer", answer);
        v.scalar("waitTicks", "ticks spent waiting", waitTicks);
        v.average("lat", "latency", lat);
    }
};

} // namespace

TEST(Group, DumpsRegisteredStats)
{
    Component c;
    c.answer = 42;
    c.waitTicks = 28266012;
    c.lat.sample(10);

    Group g("test.group", c);
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("test.group.answer"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("test.group.lat.mean"), std::string::npos);
    EXPECT_NE(out.find("# the answer"), std::string::npos);
    // Counts print every digit, never a rounded 2.8266e+07.
    EXPECT_NE(out.find(" 28266012  # ticks spent waiting"),
              std::string::npos);
    EXPECT_EQ(out.find("e+07"), std::string::npos);
}

TEST(Group, FindsScalarsByName)
{
    Component c;
    c.waitTicks = 5;
    Group g("test.group", c);
    ASSERT_NE(g.findScalar("waitTicks"), nullptr);
    EXPECT_EQ(g.findScalar("waitTicks"), &c.waitTicks);
    EXPECT_EQ(g.findScalar("lat"), nullptr);
    EXPECT_EQ(g.findScalar("missing"), nullptr);
}
