#include "trace/trace.hh"

#include <cstring>

#include "sim/logging.hh"

namespace psim
{

namespace
{

constexpr std::uint64_t kMagic = 0x505349'4d54524bULL; // "PSIMTRK"

/** Version 2: explicit little-endian field-by-field serialization. */
constexpr std::uint32_t kVersion = 2;

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kRecordBytes = 40;

void
putLe(unsigned char *p, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
encodeHeader(unsigned char (&buf)[kHeaderBytes], std::uint64_t count)
{
    std::memset(buf, 0, sizeof(buf));
    putLe(buf + 0, kMagic, 8);
    putLe(buf + 8, kVersion, 4);
    // bytes 12..15: reserved, zero
    putLe(buf + 16, count, 8);
}

void
encodeRecord(unsigned char (&buf)[kRecordBytes], const TraceRecord &rec)
{
    std::memset(buf, 0, sizeof(buf));
    putLe(buf + 0, rec.tick, 8);
    putLe(buf + 8, rec.pc, 8);
    putLe(buf + 16, rec.addr, 8);
    putLe(buf + 24, rec.node, 4);
    buf[28] = static_cast<unsigned char>(rec.kind);
    buf[29] = rec.hit ? 1 : 0;
}

TraceRecord
decodeRecord(const unsigned char (&buf)[kRecordBytes])
{
    TraceRecord rec;
    rec.tick = getLe(buf + 0, 8);
    rec.pc = getLe(buf + 8, 8);
    rec.addr = getLe(buf + 16, 8);
    rec.node = static_cast<NodeId>(getLe(buf + 24, 4));
    rec.kind = static_cast<TraceRecord::Kind>(buf[28]);
    rec.hit = buf[29] != 0;
    return rec;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : _out(path, std::ios::binary | std::ios::trunc)
{
    if (!_out)
        psim_fatal("cannot open trace file '%s'", path.c_str());
    unsigned char buf[kHeaderBytes];
    encodeHeader(buf, 0);
    _out.write(reinterpret_cast<const char *>(buf), sizeof(buf));
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const TraceRecord &rec)
{
    psim_assert(!_closed, "append to closed trace");
    unsigned char buf[kRecordBytes];
    encodeRecord(buf, rec);
    _out.write(reinterpret_cast<const char *>(buf), sizeof(buf));
    ++_count;
}

void
TraceWriter::close()
{
    if (_closed)
        return;
    _closed = true;
    // The stream's error state is sticky, so this single check covers
    // every append() so far; a short write must not produce a file that
    // silently reads back with fewer records than were captured.
    if (!_out)
        psim_fatal("trace write failed before close (disk full?)");
    unsigned char buf[kHeaderBytes];
    encodeHeader(buf, _count);
    _out.seekp(0);
    _out.write(reinterpret_cast<const char *>(buf), sizeof(buf));
    _out.flush();
    if (!_out)
        psim_fatal("trace close failed: header count not durable");
}

TraceReader::TraceReader(const std::string &path, bool salvage)
    : _in(path, std::ios::binary)
{
    if (!_in)
        psim_fatal("cannot open trace file '%s'", path.c_str());

    _in.seekg(0, std::ios::end);
    const std::uint64_t file_size =
            static_cast<std::uint64_t>(_in.tellg());
    _in.seekg(0);

    // Zero-length and sub-header files carry no recoverable records,
    // so not even --salvage can make sense of them.
    if (file_size < kHeaderBytes) {
        psim_fatal("trace '%s' is truncated before the header "
                   "(%llu of %u bytes); nothing to salvage",
                   path.c_str(), (unsigned long long)file_size,
                   (unsigned)kHeaderBytes);
    }

    unsigned char buf[kHeaderBytes];
    _in.read(reinterpret_cast<char *>(buf), sizeof(buf));
    if (!_in || getLe(buf + 0, 8) != kMagic)
        psim_fatal("'%s' is not a psim trace", path.c_str());
    const auto version = static_cast<std::uint32_t>(getLe(buf + 8, 4));
    if (version != kVersion)
        psim_fatal("trace version %u unsupported", version);
    _count = getLe(buf + 16, 8);

    const std::uint64_t body = file_size - kHeaderBytes;
    if (salvage) {
        // Recover the count from the file length; a torn trailing
        // record (writer killed mid-write) is dropped.
        _count = body / kRecordBytes;
        // A header-only file salvages to nothing. Succeeding here
        // would let a pipeline mistake an empty recovery for a good
        // one, so fail loudly instead.
        if (_count == 0) {
            psim_fatal("salvage recovered no records from '%s' "
                       "(%llu bytes past the header)",
                       path.c_str(), (unsigned long long)body);
        }
        return;
    }
    if (_count * kRecordBytes != body) {
        psim_fatal("trace '%s' is corrupt: header records %llu entries "
                   "but the file holds %llu (%s); "
                   "use trace_tool --salvage to recover",
                   path.c_str(), (unsigned long long)_count,
                   (unsigned long long)(body / kRecordBytes),
                   _count == 0 ? "writer died before close()"
                               : "truncated capture");
    }
}

bool
TraceReader::next(TraceRecord &rec)
{
    if (_read >= _count)
        return false;
    unsigned char buf[kRecordBytes];
    _in.read(reinterpret_cast<char *>(buf), sizeof(buf));
    if (!_in)
        return false;
    rec = decodeRecord(buf);
    ++_read;
    return true;
}

std::vector<TraceRecord>
TraceReader::readAll(const std::string &path, bool salvage)
{
    TraceReader reader(path, salvage);
    std::vector<TraceRecord> out;
    out.reserve(reader.count());
    TraceRecord rec;
    while (reader.next(rec))
        out.push_back(rec);
    return out;
}

} // namespace psim
