#include "check/fuzzgen.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace psim::check
{

namespace
{

/** Lane stride for counters/records/locks: one lane per cache block
 *  for every block size the fuzzer runs (<= 64 bytes). */
constexpr unsigned kLaneStride = 64;

/** RandomMix: words in each thread's private region. */
constexpr unsigned kMixWords = 64;

/** Words in the read-only shared table RandomMix reads from. */
constexpr unsigned kTableWords = 128;

/** Sweep/mix strides offered to the generator (all word-aligned):
 *  block multiples, non-block multiples, and page-straddling values
 *  around the 4 KB boundary. Sign is a separate coin flip. */
constexpr std::int64_t kStrides[] = {
    4,   8,   12,  16,   20,   32,   36,   40,   48,   64,   68,  96,
    128, 244, 256, 260,  512,  1020, 1024, 2048, 4092, 4096, 4100,
};

/** One pre-drawn RandomMix operation. The simulated thread and the
 *  native model both consume this list, so they cannot drift. */
struct MixOp
{
    enum class Op : std::uint8_t
    {
        Read,
        Write,
        TableRead,
        Think,
    };
    Op op = Op::Read;
    Addr addr = 0;
    std::uint32_t value = 0;
    Tick think = 0;
};

std::vector<MixOp>
mixOps(Rng rng, const PhaseSpec &ph, Addr base, Addr table)
{
    std::vector<MixOp> ops;
    ops.reserve(ph.iters);
    for (unsigned i = 0; i < ph.iters; ++i) {
        MixOp op;
        switch (rng.below(4)) {
        case 0:
            op.op = MixOp::Op::Read;
            op.addr = base + rng.below(kMixWords) * 4;
            break;
        case 1:
            op.op = MixOp::Op::Write;
            op.addr = base + rng.below(kMixWords) * 4;
            op.value = static_cast<std::uint32_t>(rng.next());
            break;
        case 2:
            op.op = MixOp::Op::TableRead;
            op.addr = table + rng.below(kTableWords) * 4;
            break;
        default:
            op.op = MixOp::Op::Think;
            op.think = static_cast<Tick>(rng.below(6) + 1);
            break;
        }
        ops.push_back(op);
    }
    return ops;
}

} // namespace

const char *
toString(PhaseSpec::Kind k)
{
    switch (k) {
    case PhaseSpec::Kind::StridedSweep:
        return "sweep";
    case PhaseSpec::Kind::SharedCounter:
        return "counter";
    case PhaseSpec::Kind::Migratory:
        return "migratory";
    case PhaseSpec::Kind::ProducerConsumer:
        return "pc";
    case PhaseSpec::Kind::RandomMix:
        return "mix";
    }
    return "?";
}

ProgramSpec
ProgramSpec::generate(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x517cc1b727220a95ULL);
    ProgramSpec spec;
    spec.seed = seed;
    static constexpr unsigned kThreadChoices[] = {2, 4, 8};
    spec.threads = kThreadChoices[rng.below(3)];
    spec.degree = static_cast<unsigned>(1 + rng.below(3));
    unsigned nphases = static_cast<unsigned>(2 + rng.below(4));
    constexpr std::size_t nstrides =
            sizeof(kStrides) / sizeof(kStrides[0]);
    for (unsigned p = 0; p < nphases; ++p) {
        PhaseSpec ph;
        ph.kind = static_cast<PhaseSpec::Kind>(
                rng.below(PhaseSpec::kNumKinds));
        ph.iters = static_cast<unsigned>(8 + rng.below(57)); // 8..64
        ph.lanes = static_cast<unsigned>(1 + rng.below(6));  // 1..6
        std::int64_t s = kStrides[rng.below(nstrides)];
        ph.stride = rng.chance(0.5) ? -s : s;
        ph.salt = rng.next();
        spec.phases.push_back(ph);
    }
    return spec;
}

std::string
ProgramSpec::describe() const
{
    std::string s = strfmt("seed=%llu threads=%u degree=%u phases=[",
            (unsigned long long)seed, threads, degree);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseSpec &ph = phases[p];
        if (p)
            s += " ";
        if (!ph.enabled)
            s += "!";
        s += strfmt("%s(stride=%lld,iters=%u,lanes=%u)",
                toString(ph.kind), (long long)ph.stride, ph.iters,
                ph.lanes);
    }
    s += "]";
    return s;
}

unsigned
ProgramSpec::enabledPhases() const
{
    unsigned n = 0;
    for (const PhaseSpec &ph : phases)
        n += ph.enabled ? 1 : 0;
    return n;
}

FuzzWorkload::FuzzWorkload(ProgramSpec spec)
    : Workload(1), _spec(std::move(spec))
{
    psim_assert(!_spec.phases.empty(), "fuzz program without phases");
    psim_assert(_spec.threads >= 1, "fuzz program without threads");
}

std::uint32_t
FuzzWorkload::initValue(Addr a) const
{
    std::uint32_t v = static_cast<std::uint32_t>(a) * 2654435761u;
    v ^= static_cast<std::uint32_t>(a >> 16);
    v ^= static_cast<std::uint32_t>(_spec.seed) |
         static_cast<std::uint32_t>(_spec.seed >> 32);
    return v;
}

Addr
FuzzWorkload::sweepAddr(const PhaseSpec &ph, const PhaseLayout &lay,
                        unsigned tid, unsigned i) const
{
    std::int64_t start =
            static_cast<std::int64_t>(lay.region + tid * lay.span);
    if (ph.stride < 0)
        start += static_cast<std::int64_t>(ph.iters - 1) * -ph.stride;
    return static_cast<Addr>(start +
            static_cast<std::int64_t>(i) * ph.stride);
}

Rng
FuzzWorkload::phaseRng(unsigned tid, std::size_t phase) const
{
    std::uint64_t s = _spec.seed;
    s ^= 0x9e3779b97f4a7c15ULL * (tid + 1);
    s ^= 0xbf58476d1ce4e5b9ULL * (phase + 1);
    s ^= _spec.phases[phase].salt;
    return Rng(s);
}

void
FuzzWorkload::setup(Machine &m)
{
    psim_assert(m.numProcs() == _spec.threads,
            "fuzz program needs one processor per thread "
            "(program has %u, machine has %u)",
            _spec.threads, m.numProcs());
    BackingStore &store = m.store();
    apps::ShmAllocator &a = shm();

    _barrier = a.allocSync();
    _sharedTable = a.alloc(kTableWords * 4, kLaneStride);
    for (unsigned w = 0; w < kTableWords; ++w)
        store.store<std::uint32_t>(_sharedTable + w * 4,
                initValue(_sharedTable + w * 4));

    _lay.clear();
    _lay.resize(_spec.phases.size());
    // Allocate disabled phases too: shrinking then never moves the
    // regions of the phases that stay, so a minimized repro replays
    // the surviving phases at their original addresses.
    for (std::size_t p = 0; p < _spec.phases.size(); ++p) {
        const PhaseSpec &ph = _spec.phases[p];
        PhaseLayout &lay = _lay[p];
        switch (ph.kind) {
        case PhaseSpec::Kind::StridedSweep: {
            std::int64_t mag = ph.stride < 0 ? -ph.stride : ph.stride;
            lay.span = (static_cast<std::size_t>(mag) * ph.iters + 15) &
                       ~static_cast<std::size_t>(7);
            lay.region = a.alloc(_spec.threads * lay.span, kLaneStride);
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned i = 0; i < ph.iters; ++i) {
                    Addr w = sweepAddr(ph, lay, t, i);
                    store.store<std::uint32_t>(w, initValue(w));
                }
            }
            break;
        }
        case PhaseSpec::Kind::SharedCounter:
        case PhaseSpec::Kind::Migratory:
            lay.region = a.alloc(ph.lanes * kLaneStride, kLaneStride);
            lay.locks = a.alloc(ph.lanes * kLaneStride, kLaneStride);
            for (unsigned l = 0; l < ph.lanes; ++l) {
                Addr rec = lay.region + l * kLaneStride;
                store.store<std::uint32_t>(rec, initValue(rec));
                store.store<std::uint32_t>(rec + 4, initValue(rec + 4));
            }
            break;
        case PhaseSpec::Kind::ProducerConsumer:
            lay.region = a.alloc(_spec.threads * ph.lanes * 4,
                    kLaneStride);
            lay.out = a.alloc(_spec.threads * 4, kLaneStride);
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned j = 0; j < ph.lanes; ++j) {
                    Addr s = lay.region + (t * ph.lanes + j) * 4;
                    store.store<std::uint32_t>(s, initValue(s));
                }
                Addr o = lay.out + t * 4;
                store.store<std::uint32_t>(o, initValue(o));
            }
            break;
        case PhaseSpec::Kind::RandomMix:
            lay.span = kMixWords * 4;
            lay.region = a.alloc(_spec.threads * lay.span, kLaneStride);
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned w = 0; w < kMixWords; ++w) {
                    Addr addr = lay.region + t * lay.span + w * 4;
                    store.store<std::uint32_t>(addr, initValue(addr));
                }
            }
            break;
        }
    }
    computeExpected();
}

Task
FuzzWorkload::thread(apps::ThreadCtx &ctx)
{
    return run(ctx);
}

Task
FuzzWorkload::run(apps::ThreadCtx &ctx)
{
    const unsigned tid = ctx.tid();
    for (std::size_t p = 0; p < _spec.phases.size(); ++p) {
        const PhaseSpec &ph = _spec.phases[p];
        const PhaseLayout &lay = _lay[p];
        if (!ph.enabled) {
            co_await ctx.barrier(_barrier);
            continue;
        }
        switch (ph.kind) {
        case PhaseSpec::Kind::StridedSweep:
            // Disjoint per-thread regions: a read-modify-write walk at
            // the spec's stride (negative strides walk downwards).
            for (unsigned i = 0; i < ph.iters; ++i) {
                Addr w = sweepAddr(ph, lay, tid, i);
                std::uint32_t v =
                        co_await ctx.read<std::uint32_t>(w);
                co_await ctx.write<std::uint32_t>(w, v + tid + 1 + i);
            }
            break;
        case PhaseSpec::Kind::SharedCounter:
            // Commutative lock-protected increments: the final counter
            // value is order-independent, so it is identical across
            // schemes even though the interleaving is not.
            for (unsigned i = 0; i < ph.iters; ++i) {
                unsigned lane = (tid + i) % ph.lanes;
                Addr lk = lay.locks + lane * kLaneStride;
                Addr ctr = lay.region + lane * kLaneStride;
                co_await ctx.lock(lk);
                std::uint32_t v =
                        co_await ctx.read<std::uint32_t>(ctr);
                co_await ctx.write<std::uint32_t>(ctr, v + tid + 1);
                co_await ctx.unlock(lk);
            }
            break;
        case PhaseSpec::Kind::Migratory:
            // Every thread updates the same hot records in turn, so
            // the blocks migrate between writers. Updates commute.
            for (unsigned i = 0; i < ph.iters; ++i) {
                unsigned lane = i % ph.lanes;
                Addr lk = lay.locks + lane * kLaneStride;
                Addr rec = lay.region + lane * kLaneStride;
                co_await ctx.lock(lk);
                std::uint32_t v0 =
                        co_await ctx.read<std::uint32_t>(rec);
                std::uint32_t v1 =
                        co_await ctx.read<std::uint32_t>(rec + 4);
                co_await ctx.write<std::uint32_t>(rec,
                        v0 + (tid + 1) * (i + 1));
                co_await ctx.write<std::uint32_t>(rec + 4, v1 + tid + 1);
                co_await ctx.unlock(lk);
                co_await ctx.think(3);
            }
            break;
        case PhaseSpec::Kind::ProducerConsumer: {
            // Barrier-staged rounds: every thread produces into its own
            // slots, then consumes its neighbour's. Both stages are
            // deterministic, so the result is too.
            unsigned rounds = ph.iters / 8 + 1;
            for (unsigned r = 0; r < rounds; ++r) {
                for (unsigned j = 0; j < ph.lanes; ++j) {
                    Addr s = lay.region + (tid * ph.lanes + j) * 4;
                    std::uint32_t v =
                            co_await ctx.read<std::uint32_t>(s);
                    co_await ctx.write<std::uint32_t>(s,
                            v + (tid + 1) * (r + j + 1));
                }
                co_await ctx.barrier(_barrier);
                unsigned peer = (tid + 1) % _spec.threads;
                std::uint32_t sum = 0;
                for (unsigned j = 0; j < ph.lanes; ++j) {
                    Addr s = lay.region + (peer * ph.lanes + j) * 4;
                    sum += co_await ctx.read<std::uint32_t>(s);
                }
                Addr o = lay.out + tid * 4;
                std::uint32_t acc =
                        co_await ctx.read<std::uint32_t>(o);
                co_await ctx.write<std::uint32_t>(o, acc + sum);
                co_await ctx.barrier(_barrier);
            }
            break;
        }
        case PhaseSpec::Kind::RandomMix: {
            // The op list is pre-drawn from (seed, tid, phase) alone;
            // computeExpected() consumes the identical list.
            auto ops = mixOps(phaseRng(tid, p), ph,
                    lay.region + tid * lay.span, _sharedTable);
            for (const MixOp &op : ops) {
                switch (op.op) {
                case MixOp::Op::Read:
                case MixOp::Op::TableRead:
                    (void)co_await ctx.read<std::uint32_t>(op.addr);
                    break;
                case MixOp::Op::Write:
                    co_await ctx.write<std::uint32_t>(op.addr,
                            op.value);
                    break;
                case MixOp::Op::Think:
                    co_await ctx.think(op.think);
                    break;
                }
            }
            break;
        }
        }
        co_await ctx.barrier(_barrier);
    }
}

void
FuzzWorkload::computeExpected()
{
    _expected.clear();
    // Native model of the program. For each location the program
    // touches, start from the initialization pattern and apply the
    // phase semantics; lock-protected updates commute, so replaying
    // them thread-major is equivalent to any real interleaving.
    auto at = [this](Addr a) -> std::uint32_t & {
        auto it = _expected.find(a);
        if (it == _expected.end())
            it = _expected.emplace(a, initValue(a)).first;
        return it->second;
    };

    for (std::size_t p = 0; p < _spec.phases.size(); ++p) {
        const PhaseSpec &ph = _spec.phases[p];
        const PhaseLayout &lay = _lay[p];
        if (!ph.enabled)
            continue;
        switch (ph.kind) {
        case PhaseSpec::Kind::StridedSweep:
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned i = 0; i < ph.iters; ++i)
                    at(sweepAddr(ph, lay, t, i)) += t + 1 + i;
            }
            break;
        case PhaseSpec::Kind::SharedCounter:
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned i = 0; i < ph.iters; ++i) {
                    unsigned lane = (t + i) % ph.lanes;
                    at(lay.region + lane * kLaneStride) += t + 1;
                }
            }
            break;
        case PhaseSpec::Kind::Migratory:
            for (unsigned t = 0; t < _spec.threads; ++t) {
                for (unsigned i = 0; i < ph.iters; ++i) {
                    unsigned lane = i % ph.lanes;
                    Addr rec = lay.region + lane * kLaneStride;
                    at(rec) += (t + 1) * (i + 1);
                    at(rec + 4) += t + 1;
                }
            }
            break;
        case PhaseSpec::Kind::ProducerConsumer: {
            unsigned rounds = ph.iters / 8 + 1;
            for (unsigned r = 0; r < rounds; ++r) {
                for (unsigned t = 0; t < _spec.threads; ++t) {
                    for (unsigned j = 0; j < ph.lanes; ++j) {
                        at(lay.region + (t * ph.lanes + j) * 4) +=
                                (t + 1) * (r + j + 1);
                    }
                }
                for (unsigned t = 0; t < _spec.threads; ++t) {
                    unsigned peer = (t + 1) % _spec.threads;
                    std::uint32_t sum = 0;
                    for (unsigned j = 0; j < ph.lanes; ++j)
                        sum += at(lay.region +
                                (peer * ph.lanes + j) * 4);
                    at(lay.out + t * 4) += sum;
                }
            }
            break;
        }
        case PhaseSpec::Kind::RandomMix:
            for (unsigned t = 0; t < _spec.threads; ++t) {
                auto ops = mixOps(phaseRng(t, p), ph,
                        lay.region + t * lay.span, _sharedTable);
                for (const MixOp &op : ops) {
                    if (op.op == MixOp::Op::Write)
                        at(op.addr) = op.value;
                }
            }
            break;
        }
    }
}

bool
FuzzWorkload::verify(Machine &m)
{
    for (const auto &[addr, want] : _expected) {
        if (m.store().load<std::uint32_t>(addr) != want)
            return false;
    }
    return true;
}

} // namespace psim::check
