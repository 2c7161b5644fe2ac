/**
 * @file
 * Unit and integration tests for trace capture and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>

#include "apps/driver.hh"
#include "trace/trace.hh"

using namespace psim;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(Trace, RoundTripsRecords)
{
    std::string path = tmpPath("roundtrip.psimtrace");
    std::vector<TraceRecord> in;
    for (int i = 0; i < 100; ++i) {
        TraceRecord r;
        r.tick = static_cast<Tick>(i * 7);
        r.pc = 0x1000 + i * 4;
        r.addr = 0x10000000ULL + i * 32;
        r.node = static_cast<NodeId>(i % 16);
        r.kind = i % 3 ? TraceRecord::Kind::Read
                       : TraceRecord::Kind::Write;
        r.hit = i % 2;
        in.push_back(r);
    }
    {
        TraceWriter w(path);
        for (const auto &r : in)
            w.append(r);
        w.close();
        EXPECT_EQ(w.count(), 100u);
    }
    auto out = TraceReader::readAll(path);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_TRUE(out[i] == in[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(Trace, EmptyTraceIsValid)
{
    std::string path = tmpPath("empty.psimtrace");
    {
        TraceWriter w(path);
        w.close();
    }
    auto out = TraceReader::readAll(path);
    EXPECT_TRUE(out.empty());
    std::remove(path.c_str());
}

TEST(Trace, WriterClosesOnDestruction)
{
    std::string path = tmpPath("dtor.psimtrace");
    {
        TraceWriter w(path);
        TraceRecord r;
        r.addr = 42;
        w.append(r);
        // no explicit close
    }
    auto out = TraceReader::readAll(path);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, 42u);
    std::remove(path.c_str());
}

TEST(Trace, CapturesAFullWorkloadRun)
{
    std::string path = tmpPath("lu.psimtrace");
    MachineConfig cfg;
    cfg.numProcs = 4;

    Machine machine(cfg);
    auto wl = apps::makeWorkload("lu");
    TraceWriter writer(path);
    machine.enableTracing(writer);
    wl->attach(machine);
    machine.run();
    ASSERT_TRUE(machine.allFinished());
    EXPECT_TRUE(wl->verify(machine));
    writer.close();

    // The trace must contain exactly the requests the SLCs saw.
    double slc_reads = 0, slc_writes = 0;
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        slc_reads += machine.node(n).slc().demandReads.value();
        slc_writes += machine.node(n).slc().writeRequests.value();
    }
    auto records = TraceReader::readAll(path);
    std::uint64_t reads = 0, writes = 0, misses = 0;
    for (const auto &r : records) {
        if (r.kind == TraceRecord::Kind::Read) {
            ++reads;
            if (!r.hit)
                ++misses;
        } else {
            ++writes;
        }
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(reads), slc_reads);
    EXPECT_DOUBLE_EQ(static_cast<double>(writes), slc_writes);
    EXPECT_GT(misses, 0u);

    // Ticks are non-decreasing per node.
    std::map<NodeId, Tick> last;
    for (const auto &r : records) {
        auto it = last.find(r.node);
        if (it != last.end()) {
            EXPECT_GE(r.tick, it->second);
        }
        last[r.node] = r.tick;
    }
    std::remove(path.c_str());
}

// Property test: any record round-trips bit-exactly through the
// little-endian v2 serialization (seeded, so failures reproduce).
TEST(Trace, RoundTripsRandomRecords)
{
    std::string path = tmpPath("random.psimtrace");
    std::mt19937_64 rng(0xC0FFEEULL);
    std::vector<TraceRecord> in;
    for (int i = 0; i < 4096; ++i) {
        TraceRecord r;
        r.tick = rng();
        r.pc = rng();
        r.addr = rng();
        r.node = static_cast<NodeId>(rng() & 0xFFFFFFFFu);
        r.kind = rng() & 1 ? TraceRecord::Kind::Read
                           : TraceRecord::Kind::Write;
        r.hit = rng() & 1;
        in.push_back(r);
    }
    {
        TraceWriter w(path);
        for (const auto &r : in)
            w.append(r);
        w.close();
    }
    auto out = TraceReader::readAll(path);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        ASSERT_TRUE(out[i] == in[i]) << "record " << i;
    std::remove(path.c_str());
}

// Golden-bytes fixture: the v2 encoding of one known record, written
// out byte by byte. If serialization ever silently changes (field
// order, width, endianness), this fails on every host — including the
// little-endian ones where a host-endian bug would otherwise hide.
TEST(Trace, GoldenBytesMatchTheDocumentedFormat)
{
    std::string path = tmpPath("golden.psimtrace");
    TraceRecord r;
    r.tick = 0x0102030405060708ULL;
    r.pc = 0x1112131415161718ULL;
    r.addr = 0x2122232425262728ULL;
    r.node = 0x31323334u;
    r.kind = TraceRecord::Kind::Write;
    r.hit = true;
    {
        TraceWriter w(path);
        w.append(r);
        w.close();
    }

    const unsigned char expected[64] = {
        // header: magic "KRTMISP\0" = 0x505349'4d54524b little-endian
        0x4b, 0x52, 0x54, 0x4d, 0x49, 0x53, 0x50, 0x00,
        0x02, 0x00, 0x00, 0x00,             // version 2
        0x00, 0x00, 0x00, 0x00,             // reserved
        0x01, 0, 0, 0, 0, 0, 0, 0,          // count 1
        // record: tick, pc, addr (8 bytes each, little-endian)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
        0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,
        0x34, 0x33, 0x32, 0x31,             // node
        0x01,                               // kind = Write
        0x01,                               // hit
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0,       // padding
    };
    std::string bytes = readFileBytes(path);
    ASSERT_EQ(bytes.size(), sizeof(expected));
    EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof(expected)), 0);

    TraceReader reader(path);
    TraceRecord back;
    ASSERT_TRUE(reader.next(back));
    EXPECT_TRUE(back == r);
    std::remove(path.c_str());
}

TEST(TraceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceReader r("/nonexistent/file.trace"),
            ::testing::ExitedWithCode(1), "cannot open trace");
}

TEST(TraceDeath, GarbageFileIsFatal)
{
    std::string path = tmpPath("garbage.psimtrace");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all, not even close";
    }
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
            "not a psim trace");
    std::remove(path.c_str());
}

namespace
{

/** A closed 10-record capture, returned as raw bytes. */
std::string
captureBytes(const char *name)
{
    std::string path = tmpPath(name);
    {
        TraceWriter w(path);
        for (int i = 0; i < 10; ++i) {
            TraceRecord r;
            r.tick = static_cast<Tick>(i);
            r.addr = 0x1000u + 32u * static_cast<Addr>(i);
            w.append(r);
        }
        w.close();
    }
    std::string bytes = readFileBytes(path);
    std::remove(path.c_str());
    return bytes;
}

} // namespace

// Version 1 (raw host-endian structs) is rejected, not decoded as v2.
TEST(TraceDeath, Version1IsFatal)
{
    std::string path = tmpPath("v1.psimtrace");
    std::string bytes = captureBytes("v1-src.psimtrace");
    bytes[8] = 1; // patch the version field down to 1
    writeFileBytes(path, bytes);
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
            "trace version 1 unsupported");
    std::remove(path.c_str());
}

TEST(TraceDeath, TruncatedCaptureIsFatal)
{
    std::string path = tmpPath("truncated.psimtrace");
    std::string bytes = captureBytes("truncated-src.psimtrace");
    writeFileBytes(path, bytes.substr(0, bytes.size() - 25));
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
            "truncated capture");
    std::remove(path.c_str());
}

TEST(TraceDeath, UnclosedCaptureIsFatal)
{
    // A writer that died before close() leaves header count == 0 with a
    // non-empty body; that must not read back as an empty trace.
    std::string path = tmpPath("unclosed.psimtrace");
    std::string bytes = captureBytes("unclosed-src.psimtrace");
    for (int i = 16; i < 24; ++i)
        bytes[i] = 0;
    writeFileBytes(path, bytes);
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
            "writer died before close");
    std::remove(path.c_str());
}

TEST(TraceDeath, ZeroLengthFileIsFatal)
{
    std::string path = tmpPath("zerolen.psimtrace");
    writeFileBytes(path, "");
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
            "truncated before the header");
    std::remove(path.c_str());
}

TEST(TraceDeath, ZeroLengthFileIsFatalEvenWithSalvage)
{
    // --salvage recovers records, but a zero-length file has none to
    // recover: it must still die with the truncation diagnostic, not
    // read back as a valid empty trace.
    std::string path = tmpPath("zerolen-salvage.psimtrace");
    writeFileBytes(path, "");
    EXPECT_EXIT(TraceReader r(path, /*salvage=*/true),
            ::testing::ExitedWithCode(1),
            "truncated before the header");
    std::remove(path.c_str());
}

TEST(TraceDeath, SubHeaderFileIsFatal)
{
    // A few bytes of valid magic but less than a full header.
    std::string path = tmpPath("subheader.psimtrace");
    std::string bytes = captureBytes("subheader-src.psimtrace");
    writeFileBytes(path, bytes.substr(0, 13));
    EXPECT_EXIT(TraceReader r(path, /*salvage=*/true),
            ::testing::ExitedWithCode(1),
            "truncated before the header");
    std::remove(path.c_str());
}

TEST(TraceDeath, HeaderOnlySalvageIsFatal)
{
    // Salvaging a header-only capture recovers zero records; silently
    // succeeding would let a pipeline mistake that for a good recovery.
    std::string path = tmpPath("hdronly.psimtrace");
    std::string bytes = captureBytes("hdronly-src.psimtrace");
    writeFileBytes(path, bytes.substr(0, 24));
    EXPECT_EXIT(TraceReader r(path, /*salvage=*/true),
            ::testing::ExitedWithCode(1),
            "salvage recovered no records");
    std::remove(path.c_str());
}

TEST(Trace, HeaderOnlyClosedCaptureIsAValidEmptyTrace)
{
    // Without --salvage a properly closed empty capture (header count
    // 0, no body) stays valid: emptiness was intentional there.
    std::string path = tmpPath("hdronly-plain.psimtrace");
    std::string bytes = captureBytes("hdronly-plain-src.psimtrace");
    bytes = bytes.substr(0, 24);
    for (int i = 16; i < 24; ++i)
        bytes[i] = 0;
    writeFileBytes(path, bytes);
    auto records = TraceReader::readAll(path);
    EXPECT_TRUE(records.empty());
    std::remove(path.c_str());
}

TEST(Trace, SalvageRecoversUnclosedCapture)
{
    std::string path = tmpPath("salvage.psimtrace");
    std::string bytes = captureBytes("salvage-src.psimtrace");
    for (int i = 16; i < 24; ++i)
        bytes[i] = 0;
    // Also tear the last record in half (writer killed mid-write).
    writeFileBytes(path, bytes.substr(0, bytes.size() - 20));

    auto records = TraceReader::readAll(path, /*salvage=*/true);
    ASSERT_EQ(records.size(), 9u); // the torn 10th record is dropped
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].addr, 0x1000u + 32u * i);
    std::remove(path.c_str());
}
