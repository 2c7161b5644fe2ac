#include "apps/kvstore.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psim::apps
{

namespace
{

constexpr unsigned kSlotBytes = 32;
constexpr unsigned kKeyOff = 0;  ///< u64: 0 empty, ~0 tombstone, key+1
constexpr unsigned kValOff = 8;  ///< u64
constexpr unsigned kPrevOff = 16; ///< u32 LRU link (kNil = none)
constexpr unsigned kNextOff = 20; ///< u32 LRU link

constexpr std::uint32_t kNil = 0xffffffffu;
constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kTomb = ~0ull;

/** Headers are one per thread, spaced so no two share a cache block
 *  at any block size the harnesses run. */
constexpr unsigned kHdrBytes = 128;

/** Shared read-only routing directory, read once per request. */
constexpr unsigned kDirWords = 512;

constexpr unsigned kEpochs = 2;
constexpr double kWriteFraction = 0.3;

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

unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

std::uint64_t
dirWord(std::uint64_t seed, unsigned d)
{
    return mix64(d * 0x9e3779b97f4a7c15ULL ^ seed);
}

/** The value a PUT stores: pure in (seed, thread, request, key). */
std::uint64_t
valueOf(std::uint64_t seed, unsigned t, std::uint64_t r, std::uint64_t key)
{
    return mix64(seed ^ (key * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<std::uint64_t>(t) << 48) ^ r);
}

std::uint64_t
preloadVal(std::uint64_t seed, unsigned t, std::uint64_t key)
{
    return mix64(seed + key * 0xbf58476d1ce4e5b9ULL +
                 (static_cast<std::uint64_t>(t) << 32));
}

} // namespace

KvStoreWorkload::KvStoreWorkload(unsigned scale) : Workload(scale) {}

Addr
KvStoreWorkload::slotAddr(Addr base, std::uint32_t i) const
{
    return base + static_cast<Addr>(i) * kSlotBytes;
}

Addr
KvStoreWorkload::partitionBase(unsigned t) const
{
    return _slots + static_cast<Addr>(t) * _cap * kSlotBytes;
}

// ---- native model ----------------------------------------------------
// Every model method mirrors its coroutine twin write-for-write, so
// verify() can compare all slot bytes exactly (stale fields included).

void
KvStoreWorkload::modelLruUnlink(State &s, std::uint32_t i) const
{
    std::uint32_t p = s.prev[i];
    std::uint32_t n = s.next[i];
    if (p == kNil)
        s.head = n;
    else
        s.next[p] = n;
    if (n == kNil)
        s.tail = p;
    else
        s.prev[n] = p;
}

void
KvStoreWorkload::modelLruPushFront(State &s, std::uint32_t i) const
{
    s.prev[i] = kNil;
    s.next[i] = s.head;
    if (s.head != kNil)
        s.prev[s.head] = i;
    else
        s.tail = i;
    s.head = i;
}

void
KvStoreWorkload::modelGet(State &s, std::uint64_t key) const
{
    const std::uint64_t stored = key + 1;
    const std::uint32_t mask = _cap - 1;
    std::uint32_t j = static_cast<std::uint32_t>(mix64(key)) & mask;
    for (unsigned probes = 0;; ++probes, j = (j + 1) & mask) {
        psim_assert(probes < _cap, "kvstore model probe ran off the end");
        std::uint64_t k = s.key[j];
        if (k == kEmpty) {
            ++s.misses;
            break;
        }
        if (k == stored) {
            s.dirAcc ^= s.val[j];
            ++s.hits;
            if (s.head != j) {
                modelLruUnlink(s, j);
                modelLruPushFront(s, j);
            }
            break;
        }
    }
}

void
KvStoreWorkload::modelPut(State &s, std::uint64_t key,
                          std::uint64_t val) const
{
    const std::uint64_t stored = key + 1;
    const std::uint32_t mask = _cap - 1;
    std::uint32_t j = static_cast<std::uint32_t>(mix64(key)) & mask;
    for (unsigned probes = 0;; ++probes, j = (j + 1) & mask) {
        psim_assert(probes < _cap, "kvstore model probe ran off the end");
        std::uint64_t k = s.key[j];
        if (k == stored) {
            s.val[j] = val;
            if (s.head != j) {
                modelLruUnlink(s, j);
                modelLruPushFront(s, j);
            }
            return;
        }
        if (k == kEmpty)
            break;
    }
    if (s.entries >= _cap / 2) {
        std::uint32_t t = s.tail;
        psim_assert(t != kNil, "full kvstore partition with empty LRU");
        modelLruUnlink(s, t);
        s.key[t] = kTomb;
        --s.entries;
        ++s.tombs;
        ++s.evicts;
    }
    s.key[j] = stored;
    s.val[j] = val;
    ++s.entries;
    modelLruPushFront(s, j);
    if (s.entries + s.tombs >= 3u * _cap / 4)
        modelCompact(s);
}

void
KvStoreWorkload::modelCompact(State &s) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    live.reserve(s.entries);
    for (std::uint32_t j = s.head; j != kNil; j = s.next[j])
        live.emplace_back(s.key[j], s.val[j]);
    psim_assert(live.size() == s.entries,
                "kvstore LRU list length disagrees with entry count");
    for (unsigned i = 0; i < _cap; ++i) {
        if (s.key[i] != kEmpty)
            s.key[i] = kEmpty;
    }
    s.head = s.tail = kNil;
    s.entries = 0;
    s.tombs = 0;
    const std::uint32_t mask = _cap - 1;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        std::uint32_t j =
                static_cast<std::uint32_t>(mix64(it->first - 1)) & mask;
        while (s.key[j] != kEmpty)
            j = (j + 1) & mask;
        s.key[j] = it->first;
        s.val[j] = it->second;
        ++s.entries;
        modelLruPushFront(s, j);
    }
    ++s.compactions;
}

// ---- simulated ops ---------------------------------------------------

Task
KvStoreWorkload::lruUnlink(ThreadCtx &ctx, Addr base, std::uint32_t i,
                           Cursor *c)
{
    auto p = co_await ctx.read<std::uint32_t>(slotAddr(base, i) + kPrevOff);
    auto n = co_await ctx.read<std::uint32_t>(slotAddr(base, i) + kNextOff);
    if (p == kNil)
        c->head = n;
    else
        co_await ctx.write<std::uint32_t>(slotAddr(base, p) + kNextOff, n);
    if (n == kNil)
        c->tail = p;
    else
        co_await ctx.write<std::uint32_t>(slotAddr(base, n) + kPrevOff, p);
}

Task
KvStoreWorkload::lruPushFront(ThreadCtx &ctx, Addr base, std::uint32_t i,
                              Cursor *c)
{
    co_await ctx.write<std::uint32_t>(slotAddr(base, i) + kPrevOff, kNil);
    co_await ctx.write<std::uint32_t>(slotAddr(base, i) + kNextOff,
                                      c->head);
    if (c->head != kNil)
        co_await ctx.write<std::uint32_t>(
                slotAddr(base, c->head) + kPrevOff, i);
    else
        c->tail = i;
    c->head = i;
}

Task
KvStoreWorkload::doGet(ThreadCtx &ctx, Addr base, std::uint64_t key,
                       Cursor *c)
{
    const std::uint64_t stored = key + 1;
    const std::uint32_t mask = _cap - 1;
    std::uint32_t j = static_cast<std::uint32_t>(mix64(key)) & mask;
    for (unsigned probes = 0;; ++probes, j = (j + 1) & mask) {
        psim_assert(probes < _cap, "kvstore probe ran off the end");
        auto k = co_await ctx.read<std::uint64_t>(
                slotAddr(base, j) + kKeyOff);
        if (k == kEmpty) {
            ++c->misses;
            break;
        }
        if (k == stored) {
            auto v = co_await ctx.read<std::uint64_t>(
                    slotAddr(base, j) + kValOff);
            c->dirAcc ^= v;
            ++c->hits;
            if (c->head != j) {
                co_await lruUnlink(ctx, base, j, c);
                co_await lruPushFront(ctx, base, j, c);
            }
            break;
        }
    }
}

Task
KvStoreWorkload::doPut(ThreadCtx &ctx, Addr base, std::uint64_t key,
                       std::uint64_t val, Cursor *c)
{
    const std::uint64_t stored = key + 1;
    const std::uint32_t mask = _cap - 1;
    std::uint32_t j = static_cast<std::uint32_t>(mix64(key)) & mask;
    bool update = false;
    for (unsigned probes = 0;; ++probes, j = (j + 1) & mask) {
        psim_assert(probes < _cap, "kvstore probe ran off the end");
        auto k = co_await ctx.read<std::uint64_t>(
                slotAddr(base, j) + kKeyOff);
        if (k == stored) {
            update = true;
            break;
        }
        if (k == kEmpty)
            break;
    }
    if (update) {
        co_await ctx.write<std::uint64_t>(slotAddr(base, j) + kValOff,
                                          val);
        if (c->head != j) {
            co_await lruUnlink(ctx, base, j, c);
            co_await lruPushFront(ctx, base, j, c);
        }
        co_return;
    }
    if (c->entries >= _cap / 2) {
        std::uint32_t t = c->tail;
        psim_assert(t != kNil, "full kvstore partition with empty LRU");
        co_await lruUnlink(ctx, base, t, c);
        co_await ctx.write<std::uint64_t>(slotAddr(base, t) + kKeyOff,
                                          kTomb);
        --c->entries;
        ++c->tombs;
        ++c->evicts;
    }
    co_await ctx.write<std::uint64_t>(slotAddr(base, j) + kKeyOff, stored);
    co_await ctx.write<std::uint64_t>(slotAddr(base, j) + kValOff, val);
    ++c->entries;
    co_await lruPushFront(ctx, base, j, c);
    if (c->entries + c->tombs >= 3u * _cap / 4)
        co_await doCompact(ctx, base, c);
}

Task
KvStoreWorkload::doCompact(ThreadCtx &ctx, Addr base, Cursor *c)
{
    // Walk the LRU list MRU-first, collecting live pairs: pointer
    // chasing over the whole partition.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    live.reserve(c->entries);
    std::uint32_t j = c->head;
    while (j != kNil) {
        auto k = co_await ctx.read<std::uint64_t>(
                slotAddr(base, j) + kKeyOff);
        auto v = co_await ctx.read<std::uint64_t>(
                slotAddr(base, j) + kValOff);
        auto n = co_await ctx.read<std::uint32_t>(
                slotAddr(base, j) + kNextOff);
        live.emplace_back(k, v);
        j = n;
    }
    psim_assert(live.size() == c->entries,
                "kvstore LRU list length disagrees with entry count");
    // Sequential sweep clearing live keys and tombstones alike.
    for (unsigned s = 0; s < _cap; ++s) {
        auto k = co_await ctx.read<std::uint64_t>(
                slotAddr(base, s) + kKeyOff);
        if (k != kEmpty)
            co_await ctx.write<std::uint64_t>(slotAddr(base, s) + kKeyOff,
                                              kEmpty);
    }
    c->head = c->tail = kNil;
    c->entries = 0;
    c->tombs = 0;
    // Reinsert LRU-first so pushFront rebuilds the exact LRU order.
    const std::uint32_t mask = _cap - 1;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        std::uint32_t s =
                static_cast<std::uint32_t>(mix64(it->first - 1)) & mask;
        for (;;) {
            auto k = co_await ctx.read<std::uint64_t>(
                    slotAddr(base, s) + kKeyOff);
            if (k == kEmpty)
                break;
            s = (s + 1) & mask;
        }
        co_await ctx.write<std::uint64_t>(slotAddr(base, s) + kKeyOff,
                                          it->first);
        co_await ctx.write<std::uint64_t>(slotAddr(base, s) + kValOff,
                                          it->second);
        ++c->entries;
        co_await lruPushFront(ctx, base, s, c);
    }
    ++c->compactions;
}

// ---- workload glue ---------------------------------------------------

void
KvStoreWorkload::setup(Machine &m)
{
    const MachineConfig &cfg = m.cfg();
    const unsigned nproc = m.numProcs();
    _seed = cfg.seed;
    _theta = cfg.server.zipfTheta;
    _interArrival = cfg.server.interArrival;
    _cap = 256 * nextPow2(_scale);
    _nkeys = _cap;
    // Each thread serves 384 requests per unit of scale, split evenly
    // over the epochs.
    const std::uint64_t total = 384ull * _scale;
    _perEpoch = std::max<std::uint64_t>(1, total / kEpochs);
    _zipf = std::make_unique<ZipfSampler>(_nkeys, _theta);

    _slots = shm().alloc(
            static_cast<std::size_t>(nproc) * _cap * kSlotBytes,
            cfg.pageSize);
    _hdr = shm().alloc(static_cast<std::size_t>(nproc) * kHdrBytes,
                       kHdrBytes);
    _dir = shm().alloc(kDirWords * 8, cfg.pageSize);
    _bar = shm().allocSync();

    for (unsigned d = 0; d < kDirWords; ++d)
        m.store().store<std::uint64_t>(_dir + static_cast<Addr>(d) * 8,
                                       dirWord(_seed, d));

    // Preload every partition to a quarter of capacity.
    std::vector<State> st(nproc);
    for (unsigned t = 0; t < nproc; ++t) {
        State &s = st[t];
        s.key.assign(_cap, kEmpty);
        s.val.assign(_cap, 0);
        s.prev.assign(_cap, kNil);
        s.next.assign(_cap, kNil);
        s.head = s.tail = kNil;
        for (std::uint64_t k = 0; k < _cap / 4; ++k) {
            std::uint64_t pk = scrambleRank(k, _nkeys);
            modelPut(s, pk, preloadVal(_seed, t, pk));
        }
    }
    _start.assign(nproc, Cursor{});
    for (unsigned t = 0; t < nproc; ++t)
        _start[t] = static_cast<const Cursor &>(st[t]);

    // Write the preloaded partitions (and headers) into the store.
    for (unsigned t = 0; t < nproc; ++t) {
        const State &s = st[t];
        const Addr base = partitionBase(t);
        for (std::uint32_t i = 0; i < _cap; ++i) {
            m.store().store<std::uint64_t>(slotAddr(base, i) + kKeyOff,
                                           s.key[i]);
            m.store().store<std::uint64_t>(slotAddr(base, i) + kValOff,
                                           s.val[i]);
            m.store().store<std::uint32_t>(slotAddr(base, i) + kPrevOff,
                                           s.prev[i]);
            m.store().store<std::uint32_t>(slotAddr(base, i) + kNextOff,
                                           s.next[i]);
        }
        const Addr h = _hdr + static_cast<Addr>(t) * kHdrBytes;
        m.store().store<std::uint32_t>(h + 0, s.head);
        m.store().store<std::uint32_t>(h + 4, s.tail);
        m.store().store<std::uint32_t>(h + 8, s.entries);
        m.store().store<std::uint32_t>(h + 12, s.tombs);
        for (unsigned f = 16; f < 64; f += 8)
            m.store().store<std::uint64_t>(h + f, 0);
    }

    // Native replay of the exact request streams, epoch-synchronous.
    std::vector<RequestGen> gens;
    gens.reserve(nproc);
    for (unsigned t = 0; t < nproc; ++t) {
        ReqGenParams p;
        p.seed = _seed;
        p.thread = t;
        p.keys = _nkeys;
        p.theta = _theta;
        p.writeFraction = kWriteFraction;
        p.interArrival = _interArrival;
        gens.emplace_back(p, *_zipf);
    }
    for (unsigned epoch = 0; epoch < kEpochs; ++epoch) {
        for (unsigned t = 0; t < nproc; ++t) {
            for (std::uint64_t i = 0; i < _perEpoch; ++i) {
                const std::uint64_t r = epoch * _perEpoch + i;
                Request q = gens[t].at(r);
                unsigned d = static_cast<unsigned>(mix64(q.key)) &
                             (kDirWords - 1);
                st[t].dirAcc ^= dirWord(_seed, d) + r;
                if (q.op == Request::Op::Read)
                    modelGet(st[t], q.key);
                else
                    modelPut(st[t], q.key, valueOf(_seed, t, r, q.key));
            }
        }
        for (unsigned t = 0; t < nproc; ++t) {
            const State &nb = st[(t + 1) % nproc];
            std::uint64_t sum = 0;
            for (unsigned s = 0; s < _cap; ++s)
                sum += nb.key[s] + nb.val[s];
            st[t].scanSum += sum;
        }
    }
    _ref = std::move(st);
}

Task
KvStoreWorkload::thread(ThreadCtx &ctx)
{
    const unsigned tid = ctx.tid();
    const unsigned nproc = ctx.nthreads();
    const Addr base = partitionBase(tid);

    ReqGenParams p;
    p.seed = _seed;
    p.thread = tid;
    p.keys = _nkeys;
    p.theta = _theta;
    p.writeFraction = kWriteFraction;
    p.interArrival = _interArrival;
    RequestGen gen(p, *_zipf);

    Cursor c = _start[tid];
    for (unsigned epoch = 0; epoch < kEpochs; ++epoch) {
        for (std::uint64_t i = 0; i < _perEpoch; ++i) {
            const std::uint64_t r = epoch * _perEpoch + i;
            Request q = gen.at(r);
            if (q.think)
                co_await ctx.think(q.think);
            unsigned d = static_cast<unsigned>(mix64(q.key)) &
                         (kDirWords - 1);
            auto dv = co_await ctx.read<std::uint64_t>(
                    _dir + static_cast<Addr>(d) * 8);
            c.dirAcc ^= dv + r;
            if (q.op == Request::Op::Read)
                co_await doGet(ctx, base, q.key, &c);
            else
                co_await doPut(ctx, base, q.key,
                               valueOf(_seed, tid, r, q.key), &c);
        }
        // Requests done everywhere; partitions are now frozen for the
        // replication pull over the neighbour's slots.
        co_await ctx.barrier(_bar);
        const Addr nbase = partitionBase((tid + 1) % nproc);
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < _cap; ++s) {
            auto k = co_await ctx.read<std::uint64_t>(
                    slotAddr(nbase, s) + kKeyOff);
            auto v = co_await ctx.read<std::uint64_t>(
                    slotAddr(nbase, s) + kValOff);
            sum += k + v;
        }
        c.scanSum += sum;
        // Scans done everywhere; partitions may mutate again.
        co_await ctx.barrier(_bar);
    }

    const Addr h = _hdr + static_cast<Addr>(tid) * kHdrBytes;
    co_await ctx.write<std::uint32_t>(h + 0, c.head);
    co_await ctx.write<std::uint32_t>(h + 4, c.tail);
    co_await ctx.write<std::uint32_t>(h + 8, c.entries);
    co_await ctx.write<std::uint32_t>(h + 12, c.tombs);
    co_await ctx.write<std::uint64_t>(h + 16, c.hits);
    co_await ctx.write<std::uint64_t>(h + 24, c.misses);
    co_await ctx.write<std::uint64_t>(h + 32, c.evicts);
    co_await ctx.write<std::uint64_t>(h + 40, c.compactions);
    co_await ctx.write<std::uint64_t>(h + 48, c.scanSum);
    co_await ctx.write<std::uint64_t>(h + 56, c.dirAcc);
}

bool
KvStoreWorkload::verify(Machine &m)
{
    const unsigned nproc = m.numProcs();
    for (unsigned t = 0; t < nproc; ++t) {
        const State &s = _ref[t];
        const Addr base = partitionBase(t);
        for (std::uint32_t i = 0; i < _cap; ++i) {
            if (m.store().load<std::uint64_t>(slotAddr(base, i) +
                                              kKeyOff) != s.key[i] ||
                m.store().load<std::uint64_t>(slotAddr(base, i) +
                                              kValOff) != s.val[i] ||
                m.store().load<std::uint32_t>(slotAddr(base, i) +
                                              kPrevOff) != s.prev[i] ||
                m.store().load<std::uint32_t>(slotAddr(base, i) +
                                              kNextOff) != s.next[i]) {
                return false;
            }
        }
        const Addr h = _hdr + static_cast<Addr>(t) * kHdrBytes;
        if (m.store().load<std::uint32_t>(h + 0) != s.head ||
            m.store().load<std::uint32_t>(h + 4) != s.tail ||
            m.store().load<std::uint32_t>(h + 8) != s.entries ||
            m.store().load<std::uint32_t>(h + 12) != s.tombs ||
            m.store().load<std::uint64_t>(h + 16) != s.hits ||
            m.store().load<std::uint64_t>(h + 24) != s.misses ||
            m.store().load<std::uint64_t>(h + 32) != s.evicts ||
            m.store().load<std::uint64_t>(h + 40) != s.compactions ||
            m.store().load<std::uint64_t>(h + 48) != s.scanSum ||
            m.store().load<std::uint64_t>(h + 56) != s.dirAcc) {
            return false;
        }
    }
    return true;
}

} // namespace psim::apps
