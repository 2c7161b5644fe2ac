#include "core/chase.hh"

#include <cstring>

#include "sim/logging.hh"

namespace psim
{

namespace
{

/** Shifts tried when correlating values with miss addresses: 4- and
 * 8-byte array elements, 16- and 32-byte records. */
constexpr unsigned kShifts[] = {2, 3, 4, 5};

/** Raw-pointer chases per content observation. */
constexpr unsigned kRawPerObs = 2;

/** Total chase candidates per observation. */
constexpr unsigned kMaxPerObs = 8;

/** Depth-map entries kept before the oldest stops being tracked. */
constexpr std::size_t kDepthCap = 512;

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

ChasePrefetcher::ChasePrefetcher(unsigned block_size,
                                 std::unique_ptr<Prefetcher> base)
    : _blockSize(block_size), _base(std::move(base))
{
    psim_assert(_base, "chase needs a base scheme");
    for (RingEntry &e : _ring)
        e.bytes.resize(block_size);
}

ChasePrefetcher::~ChasePrefetcher() = default;

std::size_t
ChasePrefetcher::indexOf(Pc pc) const
{
    return (static_cast<std::size_t>(pc) >> 2) % _patterns.size();
}

const ChasePrefetcher::Pattern *
ChasePrefetcher::lookup(Pc pc) const
{
    const Pattern &p = _patterns[indexOf(pc)];
    return p.valid && p.pc == pc ? &p : nullptr;
}

bool
ChasePrefetcher::emit(Addr base, Addr offset, unsigned obs_depth,
                      std::vector<Addr> &out)
{
    if (_emitted >= kMaxPerObs)
        return false;
    if (obs_depth >= PrefetchConfig::chaseDepth) {
        ++depthClipped;
        return false;
    }
    if (base > ~static_cast<Addr>(0) - offset) {
        ++candidatesWrapped;
        return false;
    }
    Addr target = base + offset;
    Addr blk = alignDown(target, _blockSize);
    if (_depth.find(blk) == _depth.end()) {
        _depth.emplace(blk, obs_depth + 1);
        _depthFifo.push_back(blk);
        if (_depthFifo.size() > kDepthCap) {
            _depth.erase(_depthFifo.front());
            _depthFifo.pop_front();
        }
    }
    out.push_back(target);
    ++_emitted;
    return true;
}

void
ChasePrefetcher::learn(const ReadObservation &obs)
{
    if (_envHi <= _envLo)
        return;

    Pattern &p = _patterns[indexOf(obs.pc)];
    const Addr miss = obs.addr;

    // A conflicting PC in the slot ages the incumbent out rather than
    // replacing it outright, so a hot pattern survives stray misses.
    if (p.valid && p.pc != obs.pc) {
        if (p.conf > 0)
            --p.conf;
        else
            p.valid = false;
    }

    bool matched = false;
    bool have_first = false;
    Pattern first;

    for (unsigned r = 0; r < _ring.size() && !matched; ++r) {
        // Newest entry first: the value a miss consumes almost always
        // came from the most recently observed content block.
        const RingEntry &ring =
                _ring[(_ringHead + _ring.size() - 1 - r) % _ring.size()];
        if (!ring.valid)
            continue;
        for (unsigned off = 0; off + 4 <= ring.bytes.size() && !matched;
             off += 4) {
            std::uint32_t w = load32(ring.bytes.data() + off);
            if (w == 0)
                continue;
            for (unsigned s : kShifts) {
                Addr scaled = static_cast<Addr>(w) << s;
                if (scaled > miss)
                    continue;
                Addr base = miss - scaled;
                if (base < _envLo || base > _envHi)
                    continue;
                if (p.valid && p.pc == obs.pc && p.base == base &&
                    p.shift == s && p.srcPc == ring.pc) {
                    matched = true;
                    p.srcOff = off;
                    if (p.conf < kConfCap && ++p.conf == kLearned)
                        ++patternsLearned;
                    break;
                }
                if (!have_first) {
                    have_first = true;
                    first.pc = obs.pc;
                    first.srcPc = ring.pc;
                    first.base = base;
                    first.shift = s;
                    first.srcOff = off;
                }
            }
        }
    }

    if (matched)
        return;
    if (p.valid && p.pc == obs.pc) {
        // The incumbent hypothesis failed to explain this miss.
        if (p.conf > 0)
            --p.conf;
        if (p.conf == 0)
            p.valid = false;
    }
    if (!p.valid && have_first) {
        p = first;
        p.valid = true;
        p.conf = 1;
    }
}

void
ChasePrefetcher::harvest(const ReadObservation &obs, unsigned obs_depth,
                         std::vector<Addr> &out)
{
    const std::uint8_t *bytes = obs.content;
    const unsigned len = obs.contentLen;
    const Addr obs_blk = alignDown(obs.addr, _blockSize);

    // Raw pointers: aligned words inside the live heap envelope.
    if (_envHi > _envLo) {
        unsigned raw = 0;
        for (unsigned off = 0; off + 8 <= len && raw < kRawPerObs;
             off += 8) {
            std::uint64_t v = load64(bytes + off);
            if (v % 8 != 0 || v < _envLo || v > _envHi)
                continue;
            if (alignDown(static_cast<Addr>(v), _blockSize) == obs_blk)
                continue;
            if (emit(static_cast<Addr>(v), 0, obs_depth, out)) {
                ++rawCandidates;
                ++raw;
            }
        }
    }

    // Scaled indices, against every confirmed pattern.
    for (Pattern &p : _patterns) {
        if (!p.valid || p.conf < kLearned)
            continue;
        if (p.srcPc == obs.pc && p.pc != obs.pc) {
            // Producer block: bank its words for the consumer's next
            // trigger (the consumer's page, not this one, is where the
            // candidates must land to clear the page filter).
            p.npending = 0;
            for (unsigned off = 0;
                 off + 4 <= len && p.npending < p.pending.size();
                 off += 4) {
                std::uint32_t w = load32(bytes + off);
                if (w != 0)
                    p.pending[p.npending++] = w;
            }
        } else if (p.pc == obs.pc && p.srcPc == obs.pc) {
            // Self chase (intrusive lists): the link index lives at a
            // fixed offset inside the very record being read.
            if (p.srcOff + 4 <= len) {
                std::uint32_t w = load32(bytes + p.srcOff);
                if (w != 0 &&
                    emit(p.base, static_cast<Addr>(w) << p.shift,
                         obs_depth, out))
                    ++indirectCandidates;
            }
        }
    }
}

void
ChasePrefetcher::observeRead(const ReadObservation &obs,
                             std::vector<Addr> &out)
{
    // The base scheme sees the classic observation stream only --
    // synthesized fill observations would double-train it.
    if (!obs.fill)
        _base->observeRead(obs, out);

    _emitted = 0;
    const Addr obs_blk = alignDown(obs.addr, _blockSize);

    unsigned obs_depth = 0;
    if (obs.prefetchFill) {
        // Content of a block nothing has demanded yet: continue the
        // chain at its recorded depth (1 for the base scheme's own
        // prefetches, which start fresh chains).
        auto it = _depth.find(obs_blk);
        obs_depth = it != _depth.end() ? it->second : 1;
    } else {
        // Touched by the processor: the envelope grows and any chase
        // chain through this block re-anchors at depth 0.
        if (obs.addr < _envLo)
            _envLo = obs.addr;
        if (obs.addr + 8 > _envHi)
            _envHi = obs.addr + 8;
        _depth.erase(obs_blk);
    }

    if (!obs.hit && !obs.fill)
        learn(obs);

    if (obs.content && obs.contentLen >= 8)
        harvest(obs, obs_depth, out);

    // Consumer trigger: spend indices banked from producer blocks.
    Pattern &p = _patterns[indexOf(obs.pc)];
    if (p.valid && p.pc == obs.pc && p.conf >= kLearned &&
        p.srcPc != p.pc && p.npending > 0) {
        for (unsigned i = 0; i < p.npending; ++i) {
            if (emit(p.base,
                     static_cast<Addr>(p.pending[i]) << p.shift,
                     obs_depth, out))
                ++indirectCandidates;
        }
        p.npending = 0;
    }

    // Remember this content block for pairing with future misses.
    if (obs.content && obs.contentLen > 0) {
        RingEntry &e = _ring[_ringHead];
        _ringHead = (_ringHead + 1) % _ring.size();
        e.valid = true;
        e.pc = obs.pc;
        e.blkAddr = obs_blk;
        unsigned n = obs.contentLen < e.bytes.size()
                             ? obs.contentLen
                             : static_cast<unsigned>(e.bytes.size());
        std::memcpy(e.bytes.data(), obs.content, n);
    }
}

void
ChasePrefetcher::registerStats(stats::Group &g)
{
    Prefetcher::registerStats(g);
    g.addScalar("chaseRawCandidates", &rawCandidates,
            "raw heap-pointer chase candidates");
    g.addScalar("chaseIndirectCandidates", &indirectCandidates,
            "pattern-directed index chase candidates");
    g.addScalar("chasePatternsLearned", &patternsLearned,
            "index patterns reaching prefetch confidence");
    g.addScalar("chaseDepthClipped", &depthClipped,
            "chases stopped by the depth bound");
}

} // namespace psim
