#include "mem/cache_array.hh"

#include "sim/logging.hh"

namespace psim
{

namespace
{
/// Initial infinite-mode table capacity (slots; must be a power of 2).
constexpr std::size_t kInitialTableSlots = 1024;
} // namespace

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
    if (_infinite) {
        _table.resize(kInitialTableSlots);
        _tableTags.assign(kInitialTableSlots, kAddrInvalid);
        _tableShift = 64 - log2Exact(kInitialTableSlots);
        return;
    }
    psim_assert(assoc >= 1, "associativity must be >= 1");
    unsigned blocks = size_bytes / block_size;
    psim_assert(blocks >= assoc, "cache smaller than one set");
    _numSets = blocks / assoc;
    psim_assert(isPowerOf2(_numSets),
            "number of sets (%u) must be a power of 2", _numSets);
    std::size_t frames = static_cast<std::size_t>(_numSets) * _assoc;
    _frames.resize(frames);
    _tags.assign(frames, kAddrInvalid);
}

void
CacheArray::grow()
{
    // Quadruple rather than double: growth rehashes every resident
    // block, and the table never shrinks, so fewer, larger steps win.
    std::vector<CacheBlk> old = std::move(_table);
    _table.assign(old.size() * 4, CacheBlk{});
    _tableTags.assign(_table.size(), kAddrInvalid);
    _tableShift = 64 - log2Exact(_table.size());
    const std::size_t mask = _table.size() - 1;
    for (CacheBlk &blk : old) {
        if (blk.addr == kAddrInvalid)
            continue;
        std::size_t i = hashOf(blk.addr) & mask;
        while (_tableTags[i] != kAddrInvalid)
            i = (i + 1) & mask;
        _tableTags[i] = blk.addr;
        _table[i] = blk;
    }
}

std::size_t
CacheArray::numValid() const
{
    std::size_t n = 0;
    forEach([&n](const CacheBlk &) { ++n; });
    return n;
}

} // namespace psim
