#include "apps/logappend.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace psim::apps
{

namespace
{

constexpr unsigned kRecBytes = 32; ///< {seq, key, payload, checksum}
constexpr unsigned kIdxBytes = 16; ///< {key+1 u64 (0 empty), seq u64}
constexpr unsigned kGroupCommit = 32;
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
payloadOf(std::uint64_t seed, unsigned t, std::uint64_t r)
{
    return mix64(seed ^ (static_cast<std::uint64_t>(t) << 40) ^
                 (r * 0x9e3779b97f4a7c15ULL));
}

std::uint64_t
checksumOf(std::uint64_t seq, std::uint64_t key, std::uint64_t pay)
{
    return mix64(seq * 0x9e3779b97f4a7c15ULL ^
                 key * 0xbf58476d1ce4e5b9ULL ^ pay);
}

Addr
alignUp256(Addr bytes)
{
    return (bytes + 255) & ~static_cast<Addr>(255);
}

} // namespace

LogAppendWorkload::LogAppendWorkload(unsigned scale) : Workload(scale) {}

Addr
LogAppendWorkload::recAddr(unsigned t, std::uint64_t r) const
{
    const Addr stride = alignUp256(static_cast<Addr>(_perThread) *
                                   kRecBytes);
    return _log + static_cast<Addr>(t) * stride +
           static_cast<Addr>(r) * kRecBytes;
}

Addr
LogAppendWorkload::idxAddr(unsigned t, std::uint64_t s) const
{
    const Addr stride = alignUp256(static_cast<Addr>(_idxCap) *
                                   kIdxBytes);
    return _index + static_cast<Addr>(t) * stride +
           static_cast<Addr>(s) * kIdxBytes;
}

void
LogAppendWorkload::setup(Machine &m)
{
    const MachineConfig &cfg = m.cfg();
    const unsigned nproc = m.numProcs();
    _seed = cfg.seed;
    _theta = cfg.server.zipfTheta;
    _interArrival = cfg.server.interArrival;
    // Appends per thread: 256 per unit of scale.
    _perThread = 256ull * _scale;
    _idxCap = 2 * nextPow2(_perThread); // load factor <= 50%
    _nkeys = _idxCap;
    _zipf = std::make_unique<ZipfSampler>(_nkeys, _theta);

    _log = shm().alloc(
            static_cast<std::size_t>(nproc) *
                    alignUp256(static_cast<Addr>(_perThread) * kRecBytes),
            cfg.pageSize);
    _index = shm().alloc(
            static_cast<std::size_t>(nproc) *
                    alignUp256(static_cast<Addr>(_idxCap) * kIdxBytes),
            cfg.pageSize);
    _commit = shm().allocSync();
    _commitLock = shm().allocSync();
    _results = shm().alloc(static_cast<std::size_t>(nproc) * kResultStride,
                           kResultStride);
    _bar = shm().allocSync();

    for (unsigned t = 0; t < nproc; ++t) {
        for (std::uint64_t r = 0; r < _perThread; ++r) {
            for (unsigned f = 0; f < kRecBytes; f += 8)
                m.store().store<std::uint64_t>(recAddr(t, r) + f, 0);
        }
        for (std::uint64_t s = 0; s < _idxCap; ++s) {
            m.store().store<std::uint64_t>(idxAddr(t, s) + 0, 0);
            m.store().store<std::uint64_t>(idxAddr(t, s) + 8, 0);
        }
        const Addr res = _results + static_cast<Addr>(t) * kResultStride;
        for (unsigned f = 0; f < 24; f += 8)
            m.store().store<std::uint64_t>(res + f, 0);
    }
    m.store().store<std::uint64_t>(_commit, 0);

    // Native reference: indexes from the same streams, replay sums.
    _refIdxKey.assign(static_cast<std::size_t>(nproc) * _idxCap, 0);
    _refIdxSeq.assign(static_cast<std::size_t>(nproc) * _idxCap, 0);
    _refValid.assign(nproc, 0);
    _refPaySum.assign(nproc, 0);
    const std::uint64_t mask = _idxCap - 1;
    for (unsigned t = 0; t < nproc; ++t) {
        ReqGenParams p;
        p.seed = _seed;
        p.thread = t;
        p.keys = _nkeys;
        p.theta = _theta;
        p.interArrival = _interArrival;
        RequestGen gen(p, *_zipf);
        std::uint64_t *ikey = _refIdxKey.data() +
                              static_cast<std::size_t>(t) * _idxCap;
        std::uint64_t *iseq = _refIdxSeq.data() +
                              static_cast<std::size_t>(t) * _idxCap;
        for (std::uint64_t r = 0; r < _perThread; ++r) {
            Request q = gen.at(r);
            std::uint64_t s = mix64(q.key) & mask;
            for (std::uint64_t probes = 0;; ++probes, s = (s + 1) & mask) {
                psim_assert(probes < _idxCap,
                            "logappend index probe ran off the end");
                if (ikey[s] == q.key + 1) {
                    iseq[s] = r;
                    break;
                }
                if (ikey[s] == 0) {
                    ikey[s] = q.key + 1;
                    iseq[s] = r;
                    break;
                }
            }
        }
    }
    for (unsigned t = 0; t < nproc; ++t) {
        const unsigned nb = (t + 1) % nproc;
        ReqGenParams p;
        p.seed = _seed;
        p.thread = nb;
        p.keys = _nkeys;
        p.theta = _theta;
        p.interArrival = _interArrival;
        RequestGen gen(p, *_zipf);
        for (std::uint64_t r = 0; r < _perThread; ++r) {
            Request q = gen.at(r);
            std::uint64_t pay = payloadOf(_seed, nb, r);
            // The recomputed checksum always matches the appended one;
            // the replay "validates" it the way a recovery scan would.
            ++_refValid[t];
            _refPaySum[t] += pay;
            (void)q;
        }
    }
    _refCommit = static_cast<std::uint64_t>(nproc) *
                 (_perThread / kGroupCommit);
}

Task
LogAppendWorkload::thread(ThreadCtx &ctx)
{
    const unsigned tid = ctx.tid();
    const unsigned nproc = ctx.nthreads();
    const std::uint64_t mask = _idxCap - 1;

    ReqGenParams p;
    p.seed = _seed;
    p.thread = tid;
    p.keys = _nkeys;
    p.theta = _theta;
    p.interArrival = _interArrival;
    RequestGen gen(p, *_zipf);

    // ---- append phase: sequential log writes + index upserts ----
    for (std::uint64_t r = 0; r < _perThread; ++r) {
        Request q = gen.at(r);
        if (q.think)
            co_await ctx.think(q.think);
        const std::uint64_t pay = payloadOf(_seed, tid, r);
        const Addr rec = recAddr(tid, r);
        co_await ctx.write<std::uint64_t>(rec + 0, r);
        co_await ctx.write<std::uint64_t>(rec + 8, q.key);
        co_await ctx.write<std::uint64_t>(rec + 16, pay);
        co_await ctx.write<std::uint64_t>(rec + 24,
                                          checksumOf(r, q.key, pay));
        // Index upsert: scattered probe into the owner's hash index.
        std::uint64_t s = mix64(q.key) & mask;
        for (std::uint64_t probes = 0;; ++probes, s = (s + 1) & mask) {
            psim_assert(probes < _idxCap,
                        "logappend index probe ran off the end");
            auto k = co_await ctx.read<std::uint64_t>(
                    idxAddr(tid, s) + 0);
            if (k == q.key + 1) {
                co_await ctx.write<std::uint64_t>(idxAddr(tid, s) + 8, r);
                break;
            }
            if (k == 0) {
                co_await ctx.write<std::uint64_t>(idxAddr(tid, s) + 0,
                                                  q.key + 1);
                co_await ctx.write<std::uint64_t>(idxAddr(tid, s) + 8, r);
                break;
            }
        }
        // Group commit: a migratory block bouncing between writers.
        if ((r + 1) % kGroupCommit == 0) {
            co_await ctx.lock(_commitLock);
            auto c = co_await ctx.read<std::uint64_t>(_commit);
            co_await ctx.write<std::uint64_t>(_commit, c + 1);
            co_await ctx.unlock(_commitLock);
        }
    }

    // Segments complete and henceforth read-only.
    co_await ctx.barrier(_bar);

    // ---- replay phase: stream the neighbour's segment ----
    const unsigned nb = (tid + 1) % nproc;
    std::uint64_t valid = 0, paySum = 0;
    for (std::uint64_t r = 0; r < _perThread; ++r) {
        const Addr rec = recAddr(nb, r);
        auto seq = co_await ctx.read<std::uint64_t>(rec + 0);
        auto key = co_await ctx.read<std::uint64_t>(rec + 8);
        auto pay = co_await ctx.read<std::uint64_t>(rec + 16);
        auto chk = co_await ctx.read<std::uint64_t>(rec + 24);
        if (chk == checksumOf(seq, key, pay)) {
            ++valid;
            paySum += pay;
        }
    }
    auto commits = co_await ctx.read<std::uint64_t>(_commit);

    const Addr res = _results + static_cast<Addr>(tid) * kResultStride;
    co_await ctx.write<std::uint64_t>(res + 0, valid);
    co_await ctx.write<std::uint64_t>(res + 8, paySum);
    co_await ctx.write<std::uint64_t>(res + 16, commits);
}

bool
LogAppendWorkload::verify(Machine &m)
{
    const unsigned nproc = m.numProcs();
    for (unsigned t = 0; t < nproc; ++t) {
        // Segments are pure functions of (seed, thread, index).
        ReqGenParams p;
        p.seed = _seed;
        p.thread = t;
        p.keys = _nkeys;
        p.theta = _theta;
        p.interArrival = _interArrival;
        RequestGen gen(p, *_zipf);
        for (std::uint64_t r = 0; r < _perThread; ++r) {
            Request q = gen.at(r);
            std::uint64_t pay = payloadOf(_seed, t, r);
            const Addr rec = recAddr(t, r);
            if (m.store().load<std::uint64_t>(rec + 0) != r ||
                m.store().load<std::uint64_t>(rec + 8) != q.key ||
                m.store().load<std::uint64_t>(rec + 16) != pay ||
                m.store().load<std::uint64_t>(rec + 24) !=
                        checksumOf(r, q.key, pay)) {
                return false;
            }
        }
        const std::uint64_t *ikey =
                _refIdxKey.data() + static_cast<std::size_t>(t) * _idxCap;
        const std::uint64_t *iseq =
                _refIdxSeq.data() + static_cast<std::size_t>(t) * _idxCap;
        for (std::uint64_t s = 0; s < _idxCap; ++s) {
            if (m.store().load<std::uint64_t>(idxAddr(t, s) + 0) !=
                        ikey[s] ||
                m.store().load<std::uint64_t>(idxAddr(t, s) + 8) !=
                        iseq[s]) {
                return false;
            }
        }
        const Addr res = _results + static_cast<Addr>(t) * kResultStride;
        if (m.store().load<std::uint64_t>(res + 0) != _refValid[t] ||
            m.store().load<std::uint64_t>(res + 8) != _refPaySum[t] ||
            m.store().load<std::uint64_t>(res + 16) != _refCommit) {
            return false;
        }
    }
    if (m.store().load<std::uint64_t>(_commit) != _refCommit)
        return false;
    return true;
}

} // namespace psim::apps
