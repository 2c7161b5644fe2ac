/**
 * @file
 * Unit tests for the wormhole mesh: X-Y routing, latency model,
 * link contention, FIFO per path, traffic accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/mesh.hh"

using namespace psim;

namespace
{

struct Harness
{
    MachineConfig cfg;
    Mesh mesh{cfg};
};

} // namespace

TEST(Mesh, HopCountsAreManhattan)
{
    Harness h;
    // 4x4 mesh: node = row*4 + col.
    EXPECT_EQ(h.mesh.hops(0, 1), 1u);
    EXPECT_EQ(h.mesh.hops(0, 4), 1u);
    EXPECT_EQ(h.mesh.hops(0, 5), 2u);
    EXPECT_EQ(h.mesh.hops(0, 15), 6u);
    EXPECT_EQ(h.mesh.hops(15, 0), 6u);
    EXPECT_EQ(h.mesh.hops(3, 12), 6u);
}

TEST(Mesh, UncontendedLatencyMatchesFormula)
{
    Harness h;
    unsigned flits = 10;
    Tick done = h.mesh.send(0, 0, 5, flits);
    // hops * fallThrough + flits network cycles.
    EXPECT_EQ(done, h.mesh.baseLatency(2, flits));
}

TEST(Mesh, SingleHopHeaderMessage)
{
    Harness h;
    Tick done = h.mesh.send(0, 0, 1, 2);
    EXPECT_EQ(done, 3u + 2u); // 1 hop fall-through + 2 flits
}

TEST(Mesh, SharedLinkSerializesWorms)
{
    Harness h;
    // Two messages over the same 0->1 link, injected together.
    std::vector<Tick> arrivals{h.mesh.send(0, 0, 1, 10),
                               h.mesh.send(0, 0, 1, 10)};
    EXPECT_EQ(arrivals[0], 13u);
    // The second worm waits for the first to release the link.
    EXPECT_EQ(arrivals[1], arrivals[0] + 10u);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    Harness h;
    std::vector<Tick> arrivals{h.mesh.send(0, 0, 1, 10),
                               h.mesh.send(0, 4, 5, 10)};
    EXPECT_EQ(arrivals[0], 13u);
    EXPECT_EQ(arrivals[1], 13u);
}

TEST(Mesh, FifoPerPath)
{
    Harness h;
    Tick long_arrives = h.mesh.send(0, 0, 15, 10);
    Tick short_arrives = h.mesh.send(0, 0, 15, 2);
    // The short message must not overtake the long one on the same
    // path (a tie would fire in send order).
    EXPECT_GE(short_arrives, long_arrives);
}

TEST(Mesh, CountsTraffic)
{
    Harness h;
    h.mesh.send(0, 0, 1, 10);
    h.mesh.send(0, 1, 2, 2);
    EXPECT_DOUBLE_EQ(h.mesh.messages.value(), 2.0);
    EXPECT_DOUBLE_EQ(h.mesh.flitsInjected.value(), 12.0);
    EXPECT_EQ(h.mesh.msgLatency.count(), 2u);
}

TEST(Mesh, XyRoutingTakesXFirst)
{
    // Send 0 -> 5 (one east, one south) and a competing message over
    // the 0->1 east link; the 0->5 route must contend on that link.
    Harness h;
    h.mesh.send(0, 0, 1, 10);
    Tick t05 = h.mesh.send(0, 0, 5, 2);
    // Without contention: 2 hops * 3 + 2 = 8. The east link is busy
    // for 10 cycles, so the header leaves at 10 instead of 0.
    EXPECT_EQ(t05, 10u + 8u);
}

TEST(MeshDeath, SelfSendPanics)
{
    Harness h;
    EXPECT_DEATH(h.mesh.send(0, 3, 3, 2), "send to self");
}
