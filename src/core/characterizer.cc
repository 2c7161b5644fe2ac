#include "core/characterizer.hh"

#include <algorithm>
#include <cstdlib>

namespace psim
{

std::int64_t
StrideCharacterizer::strideBlocks(std::int64_t stride_bytes) const
{
    std::int64_t mag = std::llabs(stride_bytes);
    // Round to the nearest whole number of blocks; strides shorter than
    // one block count as one block (the paper reports them as stride 1,
    // which is what makes sequential prefetching cover them).
    std::int64_t blocks = (mag + _blockSize / 2) / _blockSize;
    return blocks < 1 ? 1 : blocks;
}

void
StrideCharacterizer::closeRun(PcState &st)
{
    if (st.runLen >= kMinRun) {
        ++_numSequences;
        _sumSeqLen += st.runLen;
    }
}

void
StrideCharacterizer::observeMiss(Pc pc, Addr addr)
{
    ++_totalMisses;
    PcState &st = _pcs[pc];

    if (!st.hasPrev) {
        st.hasPrev = true;
        st.prevAddr = addr;
        st.runLen = 1;
        return;
    }

    std::int64_t d = static_cast<std::int64_t>(addr) -
                     static_cast<std::int64_t>(st.prevAddr);
    st.prevAddr = addr;

    if (st.hasStride && d == st.stride) {
        ++st.runLen;
        std::uint64_t fresh = 0;
        if (st.runLen == kMinRun) {
            // The run just became a sequence; count its members now.
            // Its first access may already belong to the previous
            // sequence (it is that sequence's last access), in which
            // case it must not be counted twice.
            fresh = kMinRun - (st.firstShared ? 1u : 0u);
        } else if (st.runLen > kMinRun) {
            fresh = 1;
        }
        if (fresh) {
            _strideMisses += fresh;
            _strideHist[strideBlocks(st.stride)] += fresh;
        }
        return;
    }

    // The equidistant run broke (or this is the second access from this
    // load): close it and start a new candidate run whose first element
    // is the previous access.
    bool prev_was_sequence = st.runLen >= kMinRun;
    closeRun(st);
    st.firstShared = prev_was_sequence;
    if (d != 0) {
        st.stride = d;
        st.hasStride = true;
        st.runLen = 2;
    } else {
        // Repeated misses to the same address (coherence misses) do not
        // form a stride sequence.
        st.hasStride = false;
        st.runLen = 1;
    }
}

StrideCharacterizer::Report
StrideCharacterizer::finalize()
{
    for (auto &[pc, st] : _pcs)
        closeRun(st);

    Report r;
    r.totalMisses = _totalMisses;
    r.strideMisses = _strideMisses;
    r.numSequences = _numSequences;
    r.strideFraction = _totalMisses
            ? static_cast<double>(_strideMisses) /
              static_cast<double>(_totalMisses)
            : 0.0;
    r.avgSequenceLength = _numSequences
            ? static_cast<double>(_sumSeqLen) /
              static_cast<double>(_numSequences)
            : 0.0;

    std::vector<std::pair<std::int64_t, std::uint64_t>> buckets(
            _strideHist.begin(), _strideHist.end());
    std::sort(buckets.begin(), buckets.end(),
            [](const auto &a, const auto &b) { return a.second > b.second; });
    for (const auto &[stride, weight] : buckets) {
        r.topStrides.emplace_back(stride,
                _strideMisses ? static_cast<double>(weight) /
                                static_cast<double>(_strideMisses)
                              : 0.0);
    }
    return r;
}

} // namespace psim
