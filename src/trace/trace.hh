/**
 * @file
 * Reference-trace capture and replay.
 *
 * A trace records the read/write requests presented to the SLCs --
 * exactly the stream the prefetchers and the Table-2 characterizer
 * operate on -- so that the paper's methodology can be applied offline
 * to any captured run (see tools/trace_tool.cc) and runs can be
 * archived and diffed.
 *
 * On-disk format (version 2): a 24-byte header -- magic (8 bytes),
 * version (4), reserved (4), record count (8) -- followed by fixed
 * 40-byte records: tick (8), pc (8), addr (8), node (4), kind (1),
 * hit (1), 10 bytes of zero padding. Every field is serialized
 * explicitly in little-endian byte order, so captures are portable
 * across hosts and archivable. Any other version is rejected.
 *
 * The header's record count is written by TraceWriter::close(); a
 * reader cross-checks it against the actual file size and fails loudly
 * on a mismatch (a writer that died before close() leaves count == 0),
 * instead of silently returning an empty trace. `trace_tool --salvage`
 * recovers such captures from the file length.
 */

#ifndef PSIM_TRACE_TRACE_HH
#define PSIM_TRACE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace psim
{

struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        Read,  ///< demand read presented to an SLC
        Write, ///< store presented to an SLC
    };

    Tick tick = 0;
    Pc pc = 0;
    Addr addr = 0;
    NodeId node = 0;
    Kind kind = Kind::Read;
    bool hit = false; ///< SLC hit?

    bool
    operator==(const TraceRecord &o) const
    {
        return tick == o.tick && pc == o.pc && addr == o.addr &&
               node == o.node && kind == o.kind && hit == o.hit;
    }
};

/** Streams records to a file. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceRecord &rec);

    /** Finish the file (writes the final record count). */
    void close();

    std::uint64_t count() const { return _count; }

  private:
    std::ofstream _out;
    std::uint64_t _count = 0;
    bool _closed = false;
};

/** Reads a trace file sequentially. */
class TraceReader
{
  public:
    /**
     * Open @p path and validate header magic, version and the record
     * count against the file size; any mismatch (truncation, a writer
     * that died before close()) is fatal. With @p salvage the count is
     * recovered from the file length instead, so unclosed captures can
     * still be analyzed (a partial trailing record is dropped).
     */
    explicit TraceReader(const std::string &path, bool salvage = false);

    /** @return false at end of trace. */
    bool next(TraceRecord &rec);

    std::uint64_t count() const { return _count; }

    /** Convenience: read a whole file into memory. */
    static std::vector<TraceRecord> readAll(const std::string &path,
                                            bool salvage = false);

  private:
    std::ifstream _in;
    std::uint64_t _count = 0;
    std::uint64_t _read = 0;
};

} // namespace psim

#endif // PSIM_TRACE_TRACE_HH
