#include "net/mesh.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace psim
{

Mesh::Mesh(const MachineConfig &cfg)
    : _cfg(cfg), _links(static_cast<std::size_t>(cfg.numProcs) * 4)
{
}

Mesh::Coord
Mesh::coordOf(NodeId n) const
{
    return Coord{static_cast<int>(n % _cfg.meshCols),
                 static_cast<int>(n / _cfg.meshCols)};
}

NodeId
Mesh::nodeOf(int x, int y) const
{
    return static_cast<NodeId>(y * static_cast<int>(_cfg.meshCols) + x);
}

unsigned
Mesh::hops(NodeId src, NodeId dst) const
{
    Coord a = coordOf(src);
    Coord b = coordOf(dst);
    return static_cast<unsigned>(std::abs(a.x - b.x) +
                                 std::abs(a.y - b.y));
}

Tick
Mesh::send(Tick now, NodeId src, NodeId dst, unsigned flits)
{
    psim_assert(src != dst, "mesh send to self");
    psim_assert(src < _cfg.numProcs && dst < _cfg.numProcs,
            "mesh send %u -> %u out of range", src, dst);

    const Tick worm = static_cast<Tick>(flits) * _cfg.netCycle;
    const Tick fall = _cfg.fallThrough * _cfg.netCycle;

    // Walk the head flit along the X-then-Y route. At each hop the head
    // waits for the link to become free (wormhole back-pressure
    // approximation) and pays the node fall-through latency; the worm
    // body then holds the link for `flits` network cycles. The walk
    // indexes links directly from the coordinates -- this is the
    // per-message hot path, and materializing the route as a vector
    // showed up as the top allocation site in the fig6 profile.
    Coord cur = coordOf(src);
    const Coord end = coordOf(dst);
    Tick head = now;
    while (cur.x != end.x) {
        unsigned dir = end.x > cur.x ? 0u : 1u; // east : west
        Resource &link =
                _links[static_cast<std::size_t>(nodeOf(cur.x, cur.y)) * 4 +
                       dir];
        head = link.claim(head, worm) + fall;
        cur.x += end.x > cur.x ? 1 : -1;
    }
    while (cur.y != end.y) {
        unsigned dir = end.y > cur.y ? 2u : 3u; // south : north
        Resource &link =
                _links[static_cast<std::size_t>(nodeOf(cur.x, cur.y)) * 4 +
                       dir];
        head = link.claim(head, worm) + fall;
        cur.y += end.y > cur.y ? 1 : -1;
    }
    Tick arrival = head + worm;

    ++messages;
    flitsInjected += static_cast<double>(flits);
    msgLatency.sample(static_cast<double>(arrival - now));
    return arrival;
}

} // namespace psim
