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
      _blockShift(log2Exact(block_size)),
      _numSets(0)
{
    psim_assert(isPowerOf2(block_size), "block size must be a power of 2");
    psim_assert(assoc == 1, "CacheArray is direct-mapped only");
    if (_infinite)
        return;
    _numSets = size_bytes / block_size;
    psim_assert(_numSets >= 1 && isPowerOf2(_numSets),
            "number of sets (%u) must be a power of 2", _numSets);
    _frames.resize(_numSets);
    _tags.assign(_numSets, kAddrInvalid);
}

std::size_t
CacheArray::numValid() const
{
    std::size_t n = 0;
    forEach([&n](Addr, const CacheBlk &) { ++n; });
    return n;
}

} // namespace psim
