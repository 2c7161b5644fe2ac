#include "apps/hashjoin.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace psim::apps
{

namespace
{

constexpr unsigned kTupleBytes = 16; ///< {key u64, payload u64}
constexpr unsigned kSlotBytes = 16;  ///< {key+1 u64 (0 empty), payload u64}
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

std::uint64_t
nextPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

std::uint64_t
buildPayload(std::uint64_t seed, std::uint64_t i)
{
    return mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL) ^ 0x1234abcdULL);
}

std::uint64_t
probePayload(std::uint64_t seed, unsigned t, std::uint64_t j)
{
    return mix64(seed + (static_cast<std::uint64_t>(t) << 40) + j * 3);
}

} // namespace

HashJoinWorkload::HashJoinWorkload(unsigned scale) : Workload(scale) {}

Addr
HashJoinWorkload::tupleAddr(Addr rel, std::uint64_t i) const
{
    return rel + static_cast<Addr>(i) * kTupleBytes;
}

Addr
HashJoinWorkload::slotAddr(std::uint64_t i) const
{
    return _table + static_cast<Addr>(i) * kSlotBytes;
}

/** First bucket of thread @p t's range (floor division balances any
 *  remainder, so awkward --procs counts still partition exactly). */
std::uint64_t
HashJoinWorkload::rangeLo(unsigned t, unsigned nproc) const
{
    return static_cast<std::uint64_t>(t) * _htCap / nproc;
}

namespace
{

/** The thread whose bucket range contains @p h. */
unsigned
ownerOf(std::uint64_t h, std::uint64_t htCap, unsigned nproc)
{
    unsigned t = static_cast<unsigned>(h * nproc / htCap);
    while (t + 1 < nproc &&
           static_cast<std::uint64_t>(t + 1) * htCap / nproc <= h)
        ++t;
    while (static_cast<std::uint64_t>(t) * htCap / nproc > h)
        --t;
    return t;
}

} // namespace

void
HashJoinWorkload::setup(Machine &m)
{
    const MachineConfig &cfg = m.cfg();
    const unsigned nproc = m.numProcs();
    _seed = cfg.seed;
    _theta = cfg.server.zipfTheta;
    _interArrival = cfg.server.interArrival;
    _nR = 64ull * nproc * _scale;
    _htCap = 2 * nextPow2(_nR);
    _nkeys = _htCap; // probe keys hit iff their Zipf rank is < nR
    _perS = 256ull * _scale;
    _zipf = std::make_unique<ZipfSampler>(_nkeys, _theta);

    _relR = shm().alloc(static_cast<std::size_t>(_nR) * kTupleBytes,
                        cfg.pageSize);
    _relS = shm().alloc(
            static_cast<std::size_t>(nproc) * _perS * kTupleBytes,
            cfg.pageSize);
    _table = shm().alloc(static_cast<std::size_t>(_htCap) * kSlotBytes,
                         cfg.pageSize);
    _results = shm().alloc(static_cast<std::size_t>(nproc) * kResultStride,
                           kResultStride);
    _bar = shm().allocSync();

    // Build relation R: key i is the i-th scrambled rank, so exactly
    // the Zipf-hottest probe keys are present in R.
    std::vector<std::uint64_t> rkey(_nR), rpay(_nR);
    for (std::uint64_t i = 0; i < _nR; ++i) {
        rkey[i] = scrambleRank(i, _nkeys);
        rpay[i] = buildPayload(_seed, i);
        m.store().store<std::uint64_t>(tupleAddr(_relR, i) + 0, rkey[i]);
        m.store().store<std::uint64_t>(tupleAddr(_relR, i) + 8, rpay[i]);
    }

    // Probe relation S: one chunk per thread from its request stream.
    std::vector<RequestGen> gens;
    gens.reserve(nproc);
    for (unsigned t = 0; t < nproc; ++t) {
        ReqGenParams p;
        p.seed = _seed;
        p.thread = t;
        p.keys = _nkeys;
        p.theta = _theta;
        p.interArrival = _interArrival;
        gens.emplace_back(p, *_zipf);
    }
    for (unsigned t = 0; t < nproc; ++t) {
        const Addr chunk = _relS + static_cast<Addr>(t) * _perS *
                                           kTupleBytes;
        for (std::uint64_t j = 0; j < _perS; ++j) {
            Request q = gens[t].at(j);
            m.store().store<std::uint64_t>(tupleAddr(chunk, j) + 0,
                                           q.key);
            m.store().store<std::uint64_t>(tupleAddr(chunk, j) + 8,
                                           probePayload(_seed, t, j));
        }
    }

    // Empty table in the store; the parallel section builds it.
    for (std::uint64_t i = 0; i < _htCap; ++i) {
        m.store().store<std::uint64_t>(slotAddr(i) + 0, 0);
        m.store().store<std::uint64_t>(slotAddr(i) + 8, 0);
    }
    for (unsigned t = 0; t < nproc; ++t) {
        const Addr res = _results + static_cast<Addr>(t) * kResultStride;
        m.store().store<std::uint64_t>(res + 0, 0);
        m.store().store<std::uint64_t>(res + 8, 0);
    }

    // Native reference: identical per-range build order, then probes.
    _refTableKey.assign(_htCap, 0);
    _refTablePay.assign(_htCap, 0);
    for (unsigned t = 0; t < nproc; ++t) {
        const std::uint64_t lo = rangeLo(t, nproc);
        const std::uint64_t hi = rangeLo(t + 1, nproc);
        std::uint64_t inserted = 0;
        for (std::uint64_t i = 0; i < _nR; ++i) {
            std::uint64_t h = mix64(rkey[i]) & (_htCap - 1);
            if (ownerOf(h, _htCap, nproc) != t)
                continue;
            std::uint64_t s = h;
            while (_refTableKey[s] != 0)
                s = s + 1 < hi ? s + 1 : lo;
            _refTableKey[s] = rkey[i] + 1;
            _refTablePay[s] = rpay[i];
            ++inserted;
            psim_assert(inserted < hi - lo,
                        "hashjoin bucket range overflow");
        }
    }
    _refCount.assign(nproc, 0);
    _refSum.assign(nproc, 0);
    for (unsigned t = 0; t < nproc; ++t) {
        for (std::uint64_t j = 0; j < _perS; ++j) {
            Request q = gens[t].at(j);
            std::uint64_t h = mix64(q.key) & (_htCap - 1);
            unsigned owner = ownerOf(h, _htCap, nproc);
            const std::uint64_t lo = rangeLo(owner, nproc);
            const std::uint64_t hi = rangeLo(owner + 1, nproc);
            std::uint64_t s = h;
            while (_refTableKey[s] != 0) {
                if (_refTableKey[s] == q.key + 1) {
                    ++_refCount[t];
                    _refSum[t] += _refTablePay[s] +
                                  probePayload(_seed, t, j);
                    break;
                }
                s = s + 1 < hi ? s + 1 : lo;
            }
        }
    }
}

Task
HashJoinWorkload::thread(ThreadCtx &ctx)
{
    const unsigned tid = ctx.tid();
    const unsigned nproc = ctx.nthreads();
    const std::uint64_t mask = _htCap - 1;

    // ---- build: sequential scan of all of R, owner-range inserts ----
    const std::uint64_t lo = rangeLo(tid, nproc);
    const std::uint64_t hi = rangeLo(tid + 1, nproc);
    std::uint64_t inserted = 0;
    for (std::uint64_t i = 0; i < _nR; ++i) {
        auto key = co_await ctx.read<std::uint64_t>(
                tupleAddr(_relR, i) + 0);
        std::uint64_t h = mix64(key) & mask;
        if (ownerOf(h, _htCap, nproc) != tid)
            continue;
        auto pay = co_await ctx.read<std::uint64_t>(
                tupleAddr(_relR, i) + 8);
        std::uint64_t s = h;
        for (;;) {
            auto k = co_await ctx.read<std::uint64_t>(slotAddr(s) + 0);
            if (k == 0)
                break;
            s = s + 1 < hi ? s + 1 : lo;
        }
        co_await ctx.write<std::uint64_t>(slotAddr(s) + 0, key + 1);
        co_await ctx.write<std::uint64_t>(slotAddr(s) + 8, pay);
        ++inserted;
        psim_assert(inserted < hi - lo, "hashjoin bucket range overflow");
    }

    // Table complete and henceforth read-only.
    co_await ctx.barrier(_bar);

    // ---- probe: stream own S chunk against the shared table ----
    ReqGenParams p;
    p.seed = _seed;
    p.thread = tid;
    p.keys = _nkeys;
    p.theta = _theta;
    p.interArrival = _interArrival;
    RequestGen gen(p, *_zipf);

    const Addr chunk = _relS + static_cast<Addr>(tid) * _perS *
                                       kTupleBytes;
    std::uint64_t count = 0, sum = 0;
    for (std::uint64_t j = 0; j < _perS; ++j) {
        Request q = gen.at(j);
        if (q.think)
            co_await ctx.think(q.think);
        auto key = co_await ctx.read<std::uint64_t>(
                tupleAddr(chunk, j) + 0);
        auto spay = co_await ctx.read<std::uint64_t>(
                tupleAddr(chunk, j) + 8);
        std::uint64_t h = mix64(key) & mask;
        unsigned owner = ownerOf(h, _htCap, nproc);
        const std::uint64_t olo = rangeLo(owner, nproc);
        const std::uint64_t ohi = rangeLo(owner + 1, nproc);
        std::uint64_t s = h;
        for (;;) {
            auto k = co_await ctx.read<std::uint64_t>(slotAddr(s) + 0);
            if (k == 0)
                break;
            if (k == key + 1) {
                auto tpay = co_await ctx.read<std::uint64_t>(
                        slotAddr(s) + 8);
                ++count;
                sum += tpay + spay;
                break;
            }
            s = s + 1 < ohi ? s + 1 : olo;
        }
    }

    const Addr res = _results + static_cast<Addr>(tid) * kResultStride;
    co_await ctx.write<std::uint64_t>(res + 0, count);
    co_await ctx.write<std::uint64_t>(res + 8, sum);
}

bool
HashJoinWorkload::verify(Machine &m)
{
    const unsigned nproc = m.numProcs();
    for (std::uint64_t i = 0; i < _htCap; ++i) {
        if (m.store().load<std::uint64_t>(slotAddr(i) + 0) !=
                    _refTableKey[i] ||
            m.store().load<std::uint64_t>(slotAddr(i) + 8) !=
                    _refTablePay[i]) {
            return false;
        }
    }
    for (unsigned t = 0; t < nproc; ++t) {
        const Addr res = _results + static_cast<Addr>(t) * kResultStride;
        if (m.store().load<std::uint64_t>(res + 0) != _refCount[t] ||
            m.store().load<std::uint64_t>(res + 8) != _refSum[t]) {
            return false;
        }
    }
    return true;
}

} // namespace psim::apps
