/**
 * @file
 * Offline trace analysis: apply the paper's Section-5.1 methodology to
 * a captured reference trace (see psim_cli --trace).
 *
 * Usage:
 *   trace_tool FILE [--node N] [--salvage]
 *   trace_tool stats FILE [--salvage]
 *   trace_tool check FILE [--salvage]
 *
 * The default mode prints trace summary statistics, the Table-2 stride
 * characterization of the selected node's read-miss stream, and the
 * candidate-coverage of each prefetching scheme replayed over that
 * stream. The `stats` subcommand aggregates the trace into the same
 * schema'd JSON document the simulator emits (--stats-json), so the
 * downstream tooling can consume either source. The `check` subcommand
 * validates a trace without analyzing it -- well-formed records and
 * per-node tick monotonicity -- and exits nonzero on an empty or
 * malformed file, for use as a pipeline gate.
 *
 * `--salvage` recovers records from a capture whose writer died before
 * close() (the header still says 0 records); without it such files are
 * rejected loudly.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "core/characterizer.hh"
#include "core/ddet.hh"
#include "core/idet.hh"
#include "core/sequential.hh"
#include "sim/config.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

using namespace psim;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
            "usage: %s FILE [--node N] [--salvage]\n"
            "       %s stats FILE [--salvage]\n"
            "       %s check FILE [--salvage]\n", argv0, argv0, argv0);
    std::exit(2);
}

/**
 * `trace_tool check`: validate a trace for pipeline use. Exits 0 with
 * a one-line summary when the file holds at least one record and every
 * node's ticks are monotone, 1 with a one-line diagnostic otherwise.
 */
int
checkCommand(const std::string &path, bool salvage)
{
    auto records = TraceReader::readAll(path, salvage);
    if (records.empty()) {
        std::fprintf(stderr,
                "error: trace '%s' holds no records\n", path.c_str());
        return 1;
    }
    std::map<NodeId, Tick> last_tick;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &rec = records[i];
        auto [it, fresh] = last_tick.try_emplace(rec.node, rec.tick);
        if (!fresh && rec.tick < it->second) {
            std::fprintf(stderr,
                    "error: trace '%s' record %zu: node %u tick %llu "
                    "goes backwards (previous %llu)\n",
                    path.c_str(), i, rec.node,
                    (unsigned long long)rec.tick,
                    (unsigned long long)it->second);
            return 1;
        }
        it->second = rec.tick;
    }
    std::printf("%s: OK, %zu records, %zu nodes\n", path.c_str(),
                records.size(), last_tick.size());
    return 0;
}

/** SLC probe counts of one node, or of the whole trace. */
struct NodeCounts
{
    stats::Scalar reads, readMisses, writes;

    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("reads", "SLC read probes", reads);
        v.scalar("readMisses", "SLC read misses", readMisses);
        v.scalar("writes", "SLC write probes", writes);
    }
};

/** Whole-file counts: the "trace" group. */
struct TraceCounts
{
    stats::Scalar records;
    NodeCounts slc;
    stats::Scalar nodes, firstTick, lastTick;

    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("records", "records in the trace", records);
        slc.visitStats(v);
        v.scalar("nodes", "distinct nodes in the trace", nodes);
        v.scalar("firstTick", "tick of the first record", firstTick);
        v.scalar("lastTick", "tick of the last record", lastTick);
    }
};

/**
 * `trace_tool stats`: aggregate a trace into the simulator's JSON stats
 * schema. The "trace" group carries whole-file counts; each node that
 * appears in the trace gets a "nodeN.trace" group.
 */
int
statsCommand(const std::string &path, bool salvage)
{
    auto records = TraceReader::readAll(path, salvage);

    // std::map: nodes render in ascending id order.
    std::map<NodeId, NodeCounts> nodes;
    TraceCounts all;
    Tick first = 0, last = 0;
    for (const auto &rec : records) {
        if (all.records.value() == 0 || rec.tick < first)
            first = rec.tick;
        if (rec.tick > last)
            last = rec.tick;
        ++all.records;
        NodeCounts &nc = nodes[rec.node];
        if (rec.kind == TraceRecord::Kind::Read) {
            ++all.slc.reads;
            ++nc.reads;
            if (!rec.hit) {
                ++all.slc.readMisses;
                ++nc.readMisses;
            }
        } else {
            ++all.slc.writes;
            ++nc.writes;
        }
    }
    all.firstTick = first;
    all.lastTick = last;
    all.nodes = nodes.size();

    stats::Registry registry;
    registry.add("trace", all);
    for (const auto &[id, nc] : nodes)
        registry.add("node" + std::to_string(id) + ".trace", nc);
    registry.dumpJson(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);

    bool stats_mode = std::strcmp(argv[1], "stats") == 0;
    bool check_mode = std::strcmp(argv[1], "check") == 0;
    int first_arg = (stats_mode || check_mode) ? 2 : 1;
    if (first_arg >= argc)
        usage(argv[0]);
    std::string path = argv[first_arg];
    NodeId node = 0;
    bool salvage = false;
    for (int i = first_arg + 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--node") == 0 && i + 1 < argc)
            node = static_cast<NodeId>(parseUnsignedStrict("--node",
                    argv[++i], std::numeric_limits<NodeId>::max()));
        else if (std::strcmp(argv[i], "--salvage") == 0)
            salvage = true;
        else
            usage(argv[0]);
    }

    if (stats_mode)
        return statsCommand(path, salvage);
    if (check_mode)
        return checkCommand(path, salvage);

    auto records = TraceReader::readAll(path, salvage);
    std::printf("%s: %zu records\n", path.c_str(), records.size());

    std::map<NodeId, std::uint64_t> per_node;
    std::uint64_t reads = 0, writes = 0, read_misses = 0;
    for (const auto &rec : records) {
        ++per_node[rec.node];
        if (rec.kind == TraceRecord::Kind::Read) {
            ++reads;
            if (!rec.hit)
                ++read_misses;
        } else {
            ++writes;
        }
    }
    std::printf("reads %llu (misses %llu), writes %llu, %zu nodes\n",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(read_misses),
                static_cast<unsigned long long>(writes),
                per_node.size());

    // psim_cli captures run at the default block size, the only one its
    // flags allow.
    const unsigned block = MachineConfig{}.blockSize;

    // Characterize the chosen node's demand read-miss stream.
    StrideCharacterizer chr(block);
    std::uint64_t node_misses = 0;
    for (const auto &rec : records) {
        if (rec.node == node && rec.kind == TraceRecord::Kind::Read &&
            !rec.hit) {
            chr.observeMiss(rec.pc, rec.addr);
            ++node_misses;
        }
    }
    auto report = chr.finalize();
    std::printf("\nnode %u: %llu read misses\n", node,
                static_cast<unsigned long long>(node_misses));
    std::printf("  stride misses   %.1f%%\n",
                100.0 * report.strideFraction);
    std::printf("  avg seq length  %.1f\n", report.avgSequenceLength);
    for (std::size_t i = 0; i < report.topStrides.size() && i < 4; ++i) {
        std::printf("  stride %lld blocks: %.0f%% of stride misses\n",
                    static_cast<long long>(report.topStrides[i].first),
                    100.0 * report.topStrides[i].second);
    }

    // Replay each scheme over the node's SLC-read stream and measure
    // how often its candidates cover a later miss.
    auto evaluate = [&](const char *label, Prefetcher &p) {
        std::vector<Addr> out;
        std::uint64_t issued = 0, covering = 0;
        std::vector<Addr> future;
        for (const auto &rec : records) {
            if (rec.node == node && rec.kind == TraceRecord::Kind::Read)
                future.push_back(alignDown(rec.addr, block));
        }
        std::size_t pos = 0;
        for (const auto &rec : records) {
            if (rec.node != node || rec.kind != TraceRecord::Kind::Read)
                continue;
            out.clear();
            ReadObservation obs;
            obs.pc = rec.pc;
            obs.addr = rec.addr;
            obs.hit = rec.hit;
            p.observeRead(obs, out);
            for (Addr cand : out) {
                ++issued;
                Addr blk = alignDown(cand, block);
                for (std::size_t j = pos + 1;
                     j < future.size() && j < pos + 512; ++j) {
                    if (future[j] == blk) {
                        ++covering;
                        break;
                    }
                }
            }
            ++pos;
        }
        std::printf("  %-12s issued %8llu, covering %8llu (%.0f%%)\n",
                    label, static_cast<unsigned long long>(issued),
                    static_cast<unsigned long long>(covering),
                    issued ? 100.0 * covering / issued : 0.0);
    };

    std::printf("\nprefetcher replay over node %u's reads:\n", node);
    SequentialPrefetcher seq(block, 1);
    evaluate("seq", seq);
    IDetPrefetcher idet(1, block);
    evaluate("i-det", idet);
    DDetPrefetcher ddet(block, 1);
    evaluate("d-det", ddet);
    return 0;
}
