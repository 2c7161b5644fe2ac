/**
 * @file
 * psim command-line driver: run any workload under any configuration,
 * print the paper's metrics, and optionally dump full statistics,
 * Table-2 characteristics, or a reference trace.
 *
 * Usage:
 *   psim_cli [options]
 *     --workload NAME    any registered workload (default lu); the
 *                        table in src/apps/registry.cc, and an unknown
 *                        name's error, list them all
 *     --scheme NAME      none|seq|idet|ddet|adaptive|idet-la|
 *                        mstride|chase|ptron (see schemeNames())
 *     --procs N          processors (default 16), on the squarest
 *                        mesh that tiles them (as run_spec --procs)
 *     --slc BYTES        SLC size, 0 = infinite (default 0)
 *     --scale N          data-set scale (default 1)
 *     --seed N           PRNG seed (default 12345)
 *     --stats            dump per-node statistics
 *     --characterize     print Table-2 style characteristics (node 0)
 *     --trace FILE       write the SLC reference trace to FILE
 *
 * plus the shared observability flags (paths used verbatim here):
 *     --stats-json FILE      schema'd JSON statistics dump
 *     --sample-interval N    sample scalars every N ticks
 *     --sample-csv FILE      sampler time series as CSV
 *     --chrome-trace FILE    chrome://tracing event file
 *     --chrome-window A:B    restrict chrome-trace recording to [A, B]
 *
 * Every number must be a plain run of decimal digits that fits; anything
 * else ("4x", "-1", "abc") is fatal and names the flag.
 *
 * Differential fuzzing subcommand:
 *   psim_cli fuzz [options]
 *     --seeds N          check seeds 1..N (default 20)
 *     --seed X           check one explicit seed (repeatable)
 *     --corpus FILE      read seeds from FILE (one per line, '#' comments)
 *     --jobs N           fan seeds out over N worker threads
 *     --no-shrink        skip greedy repro minimization on failure
 *     --repro-out FILE   write failing-seed repro report to FILE
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "apps/driver.hh"
#include "check/fuzz.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "trace/trace.hh"

using namespace psim;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
            "usage: %s [--workload NAME] [--scheme NAME]\n"
            "          [--procs N] [--slc BYTES] [--scale N]\n"
            "          [--seed N] [--stats]\n"
            "          [--characterize] [--trace FILE]\n"
            "          [--stats-json FILE] [--sample-interval N]\n"
            "          [--sample-csv FILE] [--chrome-trace FILE]\n"
            "          [--chrome-window A:B]\n", argv0);
    std::exit(2);
}

[[noreturn]] void
fuzzUsage(const char *argv0)
{
    std::fprintf(stderr,
            "usage: %s fuzz [--seeds N] [--seed X]...\n"
            "          [--corpus FILE] [--jobs N] [--no-shrink]\n"
            "          [--repro-out FILE]\n", argv0);
    std::exit(2);
}

/**
 * Parse a seed-corpus file: one decimal seed per line, '#' starts a
 * comment. A malformed line is fatal and named as FILE:LINE.
 */
std::vector<std::uint64_t>
readCorpus(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        psim_fatal("cannot read seed corpus '%s'", path.c_str());
    std::vector<std::uint64_t> seeds;
    std::string line;
    for (unsigned lineno = 1; std::getline(in, line); ++lineno) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        std::size_t e = line.find_last_not_of(" \t\r");
        const std::string where = path + ":" + std::to_string(lineno);
        seeds.push_back(parseUnsignedStrict(where.c_str(),
                                            line.substr(b, e - b + 1)));
    }
    if (seeds.empty())
        psim_fatal("seed corpus '%s' contains no seeds", path.c_str());
    return seeds;
}

int
fuzzMain(int argc, char **argv)
{
    check::FuzzOptions opts;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fuzzUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--seeds") {
            opts.numSeeds = parseUnsignedFlag("--seeds", value());
        } else if (arg == "--seed") {
            opts.seeds.push_back(parseUnsignedStrict("--seed", value()));
        } else if (arg == "--corpus") {
            opts.seeds = readCorpus(value());
        } else if (arg == "--jobs") {
            opts.jobs = parseUnsignedFlag("--jobs", value());
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--repro-out") {
            opts.reproPath = value();
        } else if (arg == "--help" || arg == "-h") {
            fuzzUsage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            fuzzUsage(argv[0]);
        }
    }
    check::FuzzReport report = check::runFuzz(opts, std::cout);
    return report.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0)
        return fuzzMain(argc, argv);
    std::string workload = "lu";
    std::string trace_path;
    bool dump_stats = false;
    MachineConfig cfg;
    apps::RunOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (opts.parseArg(argc, argv, &i)) {
            // consumed an observability flag
        } else if (arg == "--workload") {
            workload = value();
        } else if (arg == "--scheme") {
            cfg.prefetch.scheme = parseScheme(value());
        } else if (arg == "--procs") {
            applyProcCount(cfg, parseUnsignedFlag("--procs", value()));
        } else if (arg == "--slc") {
            cfg.slcSize = parseUnsignedFlag("--slc", value());
        } else if (arg == "--scale") {
            opts.scale = parseUnsignedFlag("--scale", value());
        } else if (arg == "--seed") {
            cfg.seed = parseUnsignedStrict("--seed", value());
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--characterize") {
            opts.characterize = true;
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }

    std::unique_ptr<TraceWriter> tracer;
    if (!trace_path.empty()) {
        tracer = std::make_unique<TraceWriter>(trace_path);
        opts.trace = tracer.get();
    }
    apps::Run run = apps::runWorkload(workload, cfg, opts);
    if (!run.finished) {
        std::fprintf(stderr, "error: machine did not quiesce\n");
        return 1;
    }
    if (tracer)
        tracer->close();

    const RunMetrics &mx = run.metrics;
    std::printf("workload         %s (scale %u)\n", workload.c_str(),
                opts.scale);
    std::printf("scheme           %s (degree %u)\n",
                toString(cfg.prefetch.scheme), cfg.prefetch.degree);
    std::printf("verified         %s\n", run.verified ? "yes" : "NO");
    std::printf("exec ticks       %llu\n",
                static_cast<unsigned long long>(mx.execTicks));
    std::printf("loads / stores   %.0f / %.0f\n", mx.reads, mx.writes);
    std::printf("read misses      %.0f (cold %.0f, coh %.0f, repl %.0f)\n",
                mx.readMisses, mx.missesCold, mx.missesCoherence,
                mx.missesReplacement);
    std::printf("read stall       %.0f ticks\n", mx.readStall);
    if (mx.pfIssued > 0) {
        std::printf("prefetches       %.0f issued, %.0f useful "
                    "(eff %.2f)\n",
                    mx.pfIssued, mx.pfUseful, mx.prefetchEfficiency());
    } else {
        std::printf("prefetches       none issued (eff —)\n");
    }
    std::printf("network flits    %.0f\n", mx.flits);
    if (tracer)
        std::printf("trace            %llu records -> %s\n",
                    static_cast<unsigned long long>(tracer->count()),
                    trace_path.c_str());

    if (opts.characterize) {
        auto report = run.machine->characterizer()->finalize();
        std::printf("\nnode-0 characteristics (Table-2 methodology):\n");
        std::printf("  stride misses   %.1f%%\n",
                    100.0 * report.strideFraction);
        std::printf("  avg seq length  %.1f\n", report.avgSequenceLength);
        for (std::size_t i = 0; i < report.topStrides.size() && i < 4;
             ++i) {
            std::printf("  stride %lld blocks: %.0f%%\n",
                        static_cast<long long>(
                                report.topStrides[i].first),
                        100.0 * report.topStrides[i].second);
        }
    }
    if (dump_stats) {
        std::printf("\n");
        run.machine->dumpStats(std::cout);
    }
    return run.verified ? 0 : 1;
}
