/**
 * @file
 * Stride characterization of a read-miss stream (Tables 2 and 3).
 *
 * Implements the paper's Section 5.1 methodology: the demand read misses
 * of one processor are classified with I-detection -- consecutive misses
 * from the same load instruction whose addresses are equidistant form a
 * stride sequence; at least three equidistant accesses are required.
 *
 * Reports, per the paper's tables:
 *  - the fraction of read misses that belong to stride sequences,
 *  - the average length (in references) of a stride sequence,
 *  - the distribution of strides measured in blocks, where strides
 *    shorter than one block count as one block (which is why the paper
 *    can say sequential prefetching covers them).
 */

#ifndef PSIM_CORE_CHARACTERIZER_HH
#define PSIM_CORE_CHARACTERIZER_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace psim
{

class StrideCharacterizer
{
  public:
    /** Summary of a miss stream (one row group of Table 2/3). */
    struct Report
    {
        std::uint64_t totalMisses = 0;
        std::uint64_t strideMisses = 0;     ///< misses inside sequences
        std::uint64_t numSequences = 0;
        double strideFraction = 0;          ///< strideMisses / totalMisses
        double avgSequenceLength = 0;       ///< references per sequence
        /** (stride in blocks, fraction of stride misses), sorted desc. */
        std::vector<std::pair<std::int64_t, double>> topStrides;
    };

    /** Equidistant accesses that make a sequence (paper: 3). */
    static constexpr unsigned kMinRun = 3;

    /** @param block_size cache block size (32 B in the paper) */
    explicit StrideCharacterizer(unsigned block_size)
        : _blockSize(block_size)
    {
    }

    /** Feed one demand read miss (in program order for its processor). */
    void observeMiss(Pc pc, Addr addr);

    /** Close all open runs and build the report. */
    Report finalize();

    /** Misses observed so far. */
    std::uint64_t totalMisses() const { return _totalMisses; }

  private:
    struct PcState
    {
        Addr prevAddr = 0;
        std::int64_t stride = 0;
        unsigned runLen = 0; ///< accesses in the current equidistant run
        bool hasPrev = false;
        bool hasStride = false;
        /** The run's first access already belongs to a prior sequence. */
        bool firstShared = false;
    };

    /** Stride in blocks; sub-block strides count as one block. */
    std::int64_t strideBlocks(std::int64_t stride_bytes) const;

    void closeRun(PcState &st);

    unsigned _blockSize;
    std::uint64_t _totalMisses = 0;
    std::uint64_t _strideMisses = 0;
    std::uint64_t _numSequences = 0;
    std::uint64_t _sumSeqLen = 0;
    /** Stride (blocks) -> member misses. */
    std::map<std::int64_t, std::uint64_t> _strideHist;
    std::unordered_map<Pc, PcState> _pcs;
};

} // namespace psim

#endif // PSIM_CORE_CHARACTERIZER_HH
