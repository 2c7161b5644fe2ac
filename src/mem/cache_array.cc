#include "mem/cache_array.hh"

#include "sim/logging.hh"

namespace psim
{

const char *
toString(CohState s)
{
    switch (s) {
      case CohState::Invalid:
        return "I";
      case CohState::Shared:
        return "S";
      case CohState::Modified:
        return "M";
    }
    return "?";
}

CacheArray::CacheArray(unsigned size_bytes, unsigned assoc,
                       unsigned block_size)
    : _infinite(size_bytes == 0),
      _assoc(assoc),
      _blockShift(log2Exact(block_size)),
      _numSets(0)
{
    psim_assert(isPowerOf2(block_size), "block size must be a power of 2");
    if (_infinite)
        return;
    psim_assert(assoc >= 1, "associativity must be >= 1");
    unsigned blocks = size_bytes / block_size;
    psim_assert(blocks >= assoc, "cache smaller than one set");
    _numSets = blocks / assoc;
    psim_assert(isPowerOf2(_numSets),
            "number of sets (%u) must be a power of 2", _numSets);
    std::size_t frames = static_cast<std::size_t>(_numSets) * _assoc;
    _frames.resize(frames);
    _tags.assign(frames, kAddrInvalid);
    if (_assoc > 1)
        _stamps.assign(frames, 0);
}

std::size_t
CacheArray::numValid() const
{
    std::size_t n = 0;
    forEach([&n](Addr, const CacheBlk &) { ++n; });
    return n;
}

} // namespace psim
