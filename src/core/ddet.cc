#include "core/ddet.hh"

#include <algorithm>

namespace psim
{

DDetPrefetcher::DDetPrefetcher(unsigned block_size, unsigned degree)
    : _blockSize(block_size), _degree(degree)
{
}

bool
DDetPrefetcher::isCommonStride(std::int64_t s) const
{
    return std::any_of(_common.begin(), _common.end(),
            [s](const CommonEntry &e) { return e.stride == s; });
}

void
DDetPrefetcher::noteStride(std::int64_t s)
{
    for (auto &e : _freq) {
        if (e.stride == s) {
            e.lastUse = ++_clock;
            if (++e.count >= PrefetchConfig::strideThreshold)
                promote(s);
            return;
        }
    }
    if (_freq.size() >= kEntries)
        evictLru(_freq);
    _freq.push_back(FreqEntry{s, 1, ++_clock});
}

void
DDetPrefetcher::promote(std::int64_t s)
{
    for (auto &e : _common) {
        if (e.stride == s) {
            e.lastUse = ++_clock;
            return;
        }
    }
    if (_common.size() >= kEntries)
        evictLru(_common);
    _common.push_back(CommonEntry{s, ++_clock});
    ++stridesPromoted;
    // Reset the frequency count so promotion needs fresh evidence the
    // next time the stride falls out of the common list.
    _freq.erase(std::remove_if(_freq.begin(), _freq.end(),
                    [s](const FreqEntry &e) { return e.stride == s; }),
                _freq.end());
}

DDetPrefetcher::Stream *
DDetPrefetcher::findStreamExpecting(Addr addr)
{
    Addr blk = alignDown(addr, _blockSize);
    for (auto &s : _streams) {
        std::int64_t next = static_cast<std::int64_t>(s.lastAddr) + s.stride;
        if (next >= 0 &&
            alignDown(static_cast<Addr>(next), _blockSize) == blk) {
            return &s;
        }
    }
    return nullptr;
}

void
DDetPrefetcher::allocStream(Addr addr, std::int64_t stride)
{
    // Refresh an existing stream with the same stride if this miss is
    // its natural continuation; otherwise allocate.
    for (auto &s : _streams) {
        if (s.stride == stride) {
            std::int64_t next =
                    static_cast<std::int64_t>(s.lastAddr) + stride;
            if (next >= 0 && static_cast<Addr>(next) == addr) {
                s.lastAddr = addr;
                s.lastUse = ++_clock;
                return;
            }
        }
    }
    if (_streams.size() >= kEntries)
        evictLru(_streams);
    _streams.push_back(Stream{addr, stride, ++_clock});
    ++streamsCreated;
}

void
DDetPrefetcher::emitStart(Addr base, std::int64_t stride,
                          std::vector<Addr> &out)
{
    // Prefetch whole blocks: sub-block strides advance one block.
    std::int64_t bs = static_cast<std::int64_t>(_blockSize);
    std::int64_t sblk = stride / bs;
    if (sblk == 0)
        sblk = stride > 0 ? 1 : -1;
    for (unsigned k = 1; k <= _degree; ++k)
        pushCandidate(base, sblk * bs * static_cast<std::int64_t>(k), out);
}

void
DDetPrefetcher::observeRead(const ReadObservation &obs,
                            std::vector<Addr> &out)
{
    if (obs.hit) {
        if (!obs.taggedHit)
            return;
        // Prefetching phase: a demand hit on a tagged block advances the
        // stream that predicted it and prefetches d strides ahead.
        if (Stream *s = findStreamExpecting(obs.addr)) {
            s->lastAddr = obs.addr;
            s->lastUse = ++_clock;
            std::int64_t bs = static_cast<std::int64_t>(_blockSize);
            std::int64_t sblk = s->stride / bs;
            if (sblk == 0)
                sblk = s->stride > 0 ? 1 : -1;
            pushCandidate(obs.addr,
                          sblk * bs * static_cast<std::int64_t>(_degree),
                          out);
        }
        return;
    }

    // ---- detection phase: read misses only ----

    // A miss that a stream predicted (the prefetch was too late or was
    // evicted): keep the stream alive and restart its prefetching, and
    // do not let the miss pollute the frequency table.
    if (Stream *s = findStreamExpecting(obs.addr)) {
        s->lastAddr = obs.addr;
        s->lastUse = ++_clock;
        emitStart(obs.addr, s->stride, out);
        _missList.push_back(obs.addr);
        if (_missList.size() > kEntries)
            _missList.pop_front();
        return;
    }

    // Pair the miss with every buffered miss; count candidate strides
    // and allocate a stream once a stride already known to be common
    // reappears (the "two additional misses" of Section 3.2). The miss
    // list can hold the same address more than once (repeated misses to
    // one block are common under invalidations); such duplicates form
    // the same stride again, and counting it twice for one observation
    // would reach the threshold-3 promotion early. Each distinct stride
    // is therefore counted at most once per observed miss, and its
    // common/frequency classification is fixed before any counting so a
    // promotion during this observation cannot also allocate a stream.
    bool stream_allocated = false;
    _strideScratch.clear();
    for (auto it = _missList.rbegin(); it != _missList.rend(); ++it) {
        std::int64_t s = static_cast<std::int64_t>(obs.addr) -
                         static_cast<std::int64_t>(*it);
        if (s == 0 || s >= kMaxStrideBytes || s <= -kMaxStrideBytes)
            continue;
        if (std::find(_strideScratch.begin(), _strideScratch.end(), s) !=
            _strideScratch.end()) {
            continue; // duplicate buffered address, stride already seen
        }
        _strideScratch.push_back(s);
        if (isCommonStride(s)) {
            if (!stream_allocated) {
                allocStream(obs.addr, s);
                emitStart(obs.addr, s, out);
                stream_allocated = true;
            }
        } else {
            noteStride(s);
        }
    }

    _missList.push_back(obs.addr);
    if (_missList.size() > kEntries)
        _missList.pop_front();
}

} // namespace psim
