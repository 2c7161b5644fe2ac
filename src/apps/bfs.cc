#include "apps/bfs.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace psim::apps
{

namespace
{

constexpr std::uint32_t kInf = 0xffffffffu;
constexpr unsigned kDeg = 6;       ///< out-degree per vertex
constexpr unsigned kCntStride = 128;
constexpr unsigned kResultStride = 64;

std::uint64_t
mix64(std::uint64_t v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    v *= 0xc4ceb9fe1a85ec53ULL;
    v ^= v >> 33;
    return v;
}

std::uint32_t
nextPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

double
unitReal(std::uint64_t u)
{
    return static_cast<double>(u >> 11) *
           (1.0 / 9007199254740992.0); // 2^-53
}

/** Round a frontier-segment size up so segments never share a block. */
Addr
segStrideFor(std::uint32_t segCap)
{
    return (static_cast<Addr>(segCap) * 4 + 255) & ~static_cast<Addr>(255);
}

} // namespace

VertexPartition::VertexPartition(std::uint32_t nV, unsigned nproc)
    : _lo(nproc + 1), _nproc(nproc), _vShift(log2Exact(nV))
{
    psim_assert(isPowerOf2(nV) && nV >= nproc && nproc >= 1,
            "vertex partition needs a power-of-two vertex count of at "
            "least nproc");
    for (unsigned t = 0; t <= nproc; ++t)
        _lo[t] = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(t) * nV / nproc);
}

BfsWorkload::BfsWorkload(unsigned scale) : Workload(scale) {}

Addr
BfsWorkload::segAddr(unsigned buf, unsigned t) const
{
    return _seg[buf] + static_cast<Addr>(t) * segStrideFor(_segCap);
}

Addr
BfsWorkload::cntAddr(unsigned buf, unsigned t) const
{
    return _cnt[buf] + static_cast<Addr>(t) * kCntStride;
}

void
BfsWorkload::setup(Machine &m)
{
    const MachineConfig &cfg = m.cfg();
    const unsigned nproc = m.numProcs();
    _seed = cfg.seed;
    _theta = cfg.server.zipfTheta;
    _interArrival = cfg.server.interArrival;
    _nV = nextPow2(64 * nproc * _scale);
    _nE = static_cast<std::uint64_t>(_nV) * kDeg;
    _queries = 3;
    _segCap = (_nV + nproc - 1) / nproc;
    _part = VertexPartition(_nV, nproc);
    _zipf = std::make_unique<ZipfSampler>(_nV, _theta);

    _rowOff = shm().alloc((static_cast<std::size_t>(_nV) + 1) * 4,
                          cfg.pageSize);
    _col = shm().alloc(static_cast<std::size_t>(_nE) * 4, cfg.pageSize);
    _dist = shm().alloc(static_cast<std::size_t>(_nV) * 4, cfg.pageSize);
    const std::size_t segBytes =
            static_cast<std::size_t>(nproc) * segStrideFor(_segCap);
    _seg[0] = shm().alloc(segBytes, cfg.pageSize);
    _seg[1] = shm().alloc(segBytes, cfg.pageSize);
    _cnt[0] = shm().alloc(static_cast<std::size_t>(nproc) * kCntStride,
                          kCntStride);
    _cnt[1] = shm().alloc(static_cast<std::size_t>(nproc) * kCntStride,
                          kCntStride);
    _results = shm().alloc(static_cast<std::size_t>(nproc) * kResultStride,
                           kResultStride);
    _bar = shm().allocSync();

    // Build the CSR: a connectivity ring plus a fan alternating
    // between Zipf-popular hubs and uniform targets.
    std::vector<std::uint32_t> row(_nV + 1), col(_nE);
    std::uint64_t e = 0;
    for (std::uint32_t v = 0; v < _nV; ++v) {
        row[v] = static_cast<std::uint32_t>(e);
        col[e++] = (v + 1) & (_nV - 1); // ring edge: all reachable
        for (unsigned j = 1; j < kDeg; ++j) {
            std::uint64_t u = mix64(_seed ^
                                    (static_cast<std::uint64_t>(v) *
                                     0x9e3779b97f4a7c15ULL) ^
                                    (j * 0xbf58476d1ce4e5b9ULL));
            std::uint32_t w;
            if (j % 2 == 1) {
                w = static_cast<std::uint32_t>(scrambleRank(
                        _zipf->sample(unitReal(u)), _nV));
            } else {
                w = static_cast<std::uint32_t>(u) & (_nV - 1);
            }
            if (w == v)
                w = (w + 1) & (_nV - 1);
            col[e++] = w;
        }
    }
    row[_nV] = static_cast<std::uint32_t>(e);
    psim_assert(e == _nE, "bfs edge count mismatch");
    for (std::uint32_t v = 0; v <= _nV; ++v)
        m.store().store<std::uint32_t>(_rowOff + static_cast<Addr>(v) * 4,
                                       row[v]);
    for (std::uint64_t i = 0; i < _nE; ++i)
        m.store().store<std::uint32_t>(_col + static_cast<Addr>(i) * 4,
                                       col[i]);
    for (std::uint32_t v = 0; v < _nV; ++v)
        m.store().store<std::uint32_t>(_dist + static_cast<Addr>(v) * 4,
                                       kInf);

    // Native reference: the same level-synchronous BFS per query.
    ReqGenParams qp;
    qp.seed = _seed;
    qp.thread = nproc; // a thread id no simulated thread uses
    qp.keys = _nV;
    qp.theta = _theta;
    qp.interArrival = _interArrival;
    RequestGen qgen(qp, *_zipf);

    _refDigest.assign(nproc, 0);
    _refVisited.assign(nproc, 0);
    std::vector<std::uint32_t> dist(_nV);
    for (std::uint64_t q = 0; q < _queries; ++q) {
        const std::uint32_t src =
                static_cast<std::uint32_t>(qgen.at(q).key) & (_nV - 1);
        std::fill(dist.begin(), dist.end(), kInf);
        dist[src] = 0;
        std::vector<std::uint32_t> cur{src}, next;
        std::uint32_t level = 0;
        while (!cur.empty()) {
            next.clear();
            for (std::uint32_t v : cur) {
                for (std::uint32_t i = row[v]; i < row[v + 1]; ++i) {
                    std::uint32_t w = col[i];
                    if (dist[w] == kInf) {
                        dist[w] = level + 1;
                        next.push_back(w);
                    }
                }
            }
            cur.swap(next);
            ++level;
        }
        for (unsigned t = 0; t < nproc; ++t) {
            const std::uint32_t lo = _part.lo(t);
            const std::uint32_t hi = _part.lo(t + 1);
            for (std::uint32_t v = lo; v < hi; ++v) {
                _refDigest[t] += mix64((q << 40) ^
                                       (static_cast<std::uint64_t>(
                                                dist[v])
                                        << 20) ^
                                       v);
                if (dist[v] != kInf)
                    ++_refVisited[t];
            }
        }
    }
    _refDist = dist;
}

Task
BfsWorkload::thread(ThreadCtx &ctx)
{
    const unsigned tid = ctx.tid();
    const unsigned nproc = ctx.nthreads();
    const std::uint32_t lo = _part.lo(tid);
    const std::uint32_t hi = _part.lo(tid + 1);

    // Query stream shared by all threads: everyone computes the same
    // source and the same arrival gap from the same pure generator.
    ReqGenParams qp;
    qp.seed = _seed;
    qp.thread = nproc;
    qp.keys = _nV;
    qp.theta = _theta;
    qp.interArrival = _interArrival;
    RequestGen qgen(qp, *_zipf);

    std::uint64_t digest = 0, visited = 0;
    for (std::uint64_t q = 0; q < _queries; ++q) {
        Request req = qgen.at(q);
        const std::uint32_t src =
                static_cast<std::uint32_t>(req.key) & (_nV - 1);
        if (req.think)
            co_await ctx.think(req.think);
        // Separate the previous query's termination reads from this
        // query's init writes (they touch the same count words).
        co_await ctx.barrier(_bar);

        for (std::uint32_t v = lo; v < hi; ++v)
            co_await ctx.write<std::uint32_t>(
                    _dist + static_cast<Addr>(v) * 4,
                    v == src ? 0 : kInf);
        std::uint32_t myCount = 0;
        if (_part.ownerOf(src) == tid) {
            co_await ctx.write<std::uint32_t>(segAddr(0, tid), src);
            myCount = 1;
        }
        co_await ctx.write<std::uint32_t>(cntAddr(0, tid), myCount);
        co_await ctx.barrier(_bar);

        unsigned cur = 0;
        std::uint32_t level = 0;
        for (;;) {
            const unsigned nxt = cur ^ 1;
            std::uint32_t appended = 0;
            for (unsigned t2 = 0; t2 < nproc; ++t2) {
                auto c = co_await ctx.read<std::uint32_t>(
                        cntAddr(cur, t2));
                for (std::uint32_t i = 0; i < c; ++i) {
                    auto v = co_await ctx.read<std::uint32_t>(
                            segAddr(cur, t2) + static_cast<Addr>(i) * 4);
                    auto rs = co_await ctx.read<std::uint32_t>(
                            _rowOff + static_cast<Addr>(v) * 4);
                    auto re = co_await ctx.read<std::uint32_t>(
                            _rowOff + static_cast<Addr>(v + 1) * 4);
                    for (std::uint32_t ei = rs; ei < re; ++ei) {
                        auto w = co_await ctx.read<std::uint32_t>(
                                _col + static_cast<Addr>(ei) * 4);
                        if (_part.ownerOf(w) != tid)
                            continue;
                        auto d = co_await ctx.read<std::uint32_t>(
                                _dist + static_cast<Addr>(w) * 4);
                        if (d != kInf)
                            continue;
                        co_await ctx.write<std::uint32_t>(
                                _dist + static_cast<Addr>(w) * 4,
                                level + 1);
                        psim_assert(appended < _segCap,
                                    "bfs frontier segment overflow");
                        co_await ctx.write<std::uint32_t>(
                                segAddr(nxt, tid) +
                                        static_cast<Addr>(appended) * 4,
                                w);
                        ++appended;
                    }
                }
            }
            co_await ctx.write<std::uint32_t>(cntAddr(nxt, tid),
                                              appended);
            co_await ctx.barrier(_bar);
            std::uint64_t total = 0;
            for (unsigned t2 = 0; t2 < nproc; ++t2)
                total += co_await ctx.read<std::uint32_t>(
                        cntAddr(nxt, t2));
            if (total == 0)
                break;
            cur = nxt;
            ++level;
        }

        // Digest own distances (private sequential sweep).
        for (std::uint32_t v = lo; v < hi; ++v) {
            auto d = co_await ctx.read<std::uint32_t>(
                    _dist + static_cast<Addr>(v) * 4);
            digest += mix64((q << 40) ^
                            (static_cast<std::uint64_t>(d) << 20) ^ v);
            if (d != kInf)
                ++visited;
        }
    }

    const Addr res = _results + static_cast<Addr>(tid) * kResultStride;
    co_await ctx.write<std::uint64_t>(res + 0, digest);
    co_await ctx.write<std::uint64_t>(res + 8, visited);
}

bool
BfsWorkload::verify(Machine &m)
{
    const unsigned nproc = m.numProcs();
    for (std::uint32_t v = 0; v < _nV; ++v) {
        if (m.store().load<std::uint32_t>(_dist +
                                          static_cast<Addr>(v) * 4) !=
            _refDist[v]) {
            return false;
        }
    }
    for (unsigned t = 0; t < nproc; ++t) {
        const Addr res = _results + static_cast<Addr>(t) * kResultStride;
        if (m.store().load<std::uint64_t>(res + 0) != _refDigest[t] ||
            m.store().load<std::uint64_t>(res + 8) != _refVisited[t]) {
            return false;
        }
    }
    return true;
}

} // namespace psim::apps
