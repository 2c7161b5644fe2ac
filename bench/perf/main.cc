/**
 * psim_perf: run one benchmark workload and write its measurements.
 *
 *   psim_perf --workload W --out FILE [--seed S] [--passes N]
 *             [--seconds T] [--trace SPANS.json] [--golden-dir DIR]
 *             [--cell ID]... [--cross-check]
 *
 * Untraced (the end-to-end metrics): every cell runs in at least N
 * interleaved passes (default 5), and further whole passes until T
 * seconds have passed. A cell's time is the minimum over its passes.
 *
 * --trace (the per-layer metrics): each cell runs once untraced, once
 * with spans and SLC-stream capture (replayed offline through every
 * scheme), once with the SC oracle, and once at 4 shards. Spans land
 * in SPANS.json.
 *
 * The process exits 0 when every cell passed, 2 when the result file
 * was written but some cell failed, and 1 on a usage or I/O error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include "check/fuzz.hh"
#include "perf.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace psim::perf
{
namespace
{

/** Shards of the traced invocation's rerun (the host's 4 cores). */
constexpr unsigned kTraceShards = 4;

struct Options
{
    std::string workload;
    std::string out;
    std::string spans; ///< --trace target; empty: untraced
    std::string goldenDir = ".";
    std::uint64_t seed = goldenSeed();
    unsigned passes = 5;
    double seconds = 0;
    std::vector<std::string> only;
    bool crossCheck = false;
};

/** Refuse to write over a pinned golden snapshot. */
void
refuseGolden(const char *flag, const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
            slash == std::string::npos ? path : path.substr(slash + 1);
    if (base.rfind("BENCH_", 0) == 0 && base.size() >= 5 &&
        base.compare(base.size() - 5, 5, ".json") == 0)
        psim_fatal("%s %s: refusing to write a BENCH_*.json golden",
                   flag, path.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                psim_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--out")
            o.out = value();
        else if (arg == "--trace")
            o.spans = value();
        else if (arg == "--golden-dir")
            o.goldenDir = value();
        else if (arg == "--seed")
            o.seed = parseUnsignedStrict("--seed", value());
        else if (arg == "--passes")
            o.passes = parseUnsignedFlag("--passes", value());
        else if (arg == "--seconds")
            o.seconds = parseUnsignedFlag("--seconds", value());
        else if (arg == "--cell")
            o.only.push_back(value());
        else if (arg == "--cross-check")
            o.crossCheck = true;
        else
            psim_fatal("unknown argument '%s' (supported: --workload W, "
                       "--out FILE, --seed S, --passes N, --seconds T, "
                       "--trace SPANS.json, --golden-dir DIR, --cell ID, "
                       "--cross-check)", arg.c_str());
    }
    if (o.workload.empty() || o.out.empty())
        psim_fatal("--workload and --out are required");
    if (o.passes == 0)
        psim_fatal("--passes must be at least 1");
    refuseGolden("--out", o.out);
    if (!o.spans.empty())
        refuseGolden("--trace", o.spans);
    if (auditDefault())
        psim_fatal("PSIM_AUDIT is set: the audit layer would be timed "
                   "with the simulator; unset it for benchmark runs");
    return o;
}

std::vector<Cell>
selectCells(const Options &o)
{
    std::vector<Cell> cells = workloadCells(o.workload, o.seed);
    if (o.only.empty())
        return cells;
    std::vector<Cell> picked;
    for (const std::string &id : o.only) {
        auto it = std::find_if(cells.begin(), cells.end(),
                               [&id](const Cell &c) { return c.id == id; });
        if (it == cells.end())
            psim_fatal("workload %s has no cell '%s'", o.workload.c_str(),
                       id.c_str());
        picked.push_back(*it);
    }
    return picked;
}

/** What the runs of one cell measured, and its first failure. */
struct CellStats
{
    CellRun first;
    double minTotal = std::numeric_limits<double>::infinity();
    double minRun = std::numeric_limits<double>::infinity();
    std::vector<double> setups;
    std::string failure;

    void
    fail(const std::string &why)
    {
        if (failure.empty())
            failure = why;
    }

    /**
     * Check one execution. Every serial-engine execution of a cell,
     * whatever is observing it, must reproduce the first one exactly.
     */
    void
    check(const CellRun &r, bool first_run, bool serial)
    {
        if (!r.finished)
            fail("did not run to completion");
        else if (!r.verified)
            fail("failed verification");
        if (!r.oracleFailure.empty())
            fail(r.oracleFailure);
        if (first_run) {
            first = r;
            return;
        }
        if (!serial)
            return;
        const std::string diff = metricsMismatch(r.metrics, first.metrics);
        if (!diff.empty())
            fail("run metrics differ between executions: " + diff);
        else if (!(r.counts == first.counts) || r.digest != first.digest)
            fail("statistics differ between executions");
    }

    void
    time(const CellRun &r)
    {
        minTotal = std::min(minTotal, r.total());
        minRun = std::min(minRun, r.seconds[Run]);
        setups.push_back(r.setup());
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * The checks made once per cell after its first execution: the golden
 * RunMetrics (at the golden seed), the fuzz programs' cross-scheme
 * image digests and, with --cross-check, the library's one-call path.
 * @return the number of cells compared against a golden.
 */
std::size_t
firstRunChecks(const Options &o, const std::vector<Cell> &cells,
               std::vector<CellStats> &stats)
{
    std::map<std::string, RunMetrics> goldens;
    if (o.seed == goldenSeed())
        goldens = loadGoldens(o.workload, o.goldenDir);
    std::size_t checked = 0;
    std::map<std::uint64_t, std::uint64_t> digests; // program -> digest
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellStats &st = stats[i];
        if (auto g = goldens.find(cells[i].id); g != goldens.end()) {
            ++checked;
            const std::string diff =
                    metricsMismatch(st.first.metrics, g->second);
            if (!diff.empty())
                st.fail("differs from its golden: " + diff);
        }
        if (cells[i].program) {
            auto [it, fresh] = digests.emplace(cells[i].program->seed,
                                               st.first.digest);
            if (!fresh && it->second != st.first.digest)
                st.fail("final memory image differs across schemes");
        }
        if (o.crossCheck) {
            const std::string diff = crossCheck(cells[i], st.first);
            if (!diff.empty())
                st.fail(diff);
        }
    }
    return checked;
}

/** An ordered metrics object: name -> {"value", "unit"}. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        json::Value m = json::Value::makeObject();
        m.set("value", value);
        m.set("unit", unit);
        _doc.set(name, std::move(m));
    }

    json::Value take() { return std::move(_doc); }

  private:
    json::Value _doc = json::Value::makeObject();
};

/** The exact work counts, summed over cells, as per-layer metrics. */
void
addCounts(MetricSet &ms, const Counts &c, double loads_checked)
{
    ms.add("apps.refs", c.refs, "count");
    ms.add("mem.slc_requests", c.slcRequests, "count");
    ms.add("mem.slc_read_misses", c.slcReadMisses, "count");
    ms.add("mem.bus_transactions", c.busTransactions, "count");
    ms.add("mem.bus_wait_ticks", c.busWaitTicks, "ticks");
    ms.add("mem.dir_requests", c.dirRequests, "count");
    ms.add("mem.dir_queued", c.dirQueued, "count");
    ms.add("core.pf_issued", c.pfIssued, "count");
    ms.add("core.pf_useful", c.pfUseful, "count");
    ms.add("core.pf_efficiency", c.pfUseful / c.pfIssued, "ratio");
    ms.add("net.messages", c.netMessages, "count");
    ms.add("net.flits", c.netFlits, "count");
    ms.add("net.latency_mean_ticks", c.netLatencySum / c.netLatencyCount,
           "ticks");
    ms.add("check.loads_checked", loads_checked, "count");
}

/**
 * This process's peak resident set in MiB. Linux carries ru_maxrss
 * across exec, so a launcher larger than psim_perf (run.py) would set
 * it; VmHWM belongs to this address space alone.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

json::Value
hostInfo()
{
    char name[256] = {};
    gethostname(name, sizeof(name) - 1);
    std::string cpu;
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; cpu.empty() && std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                cpu = line.substr(colon + 2);
        }
    }
    json::Value host = json::Value::makeObject();
    host.set("name", std::string(name));
    host.set("cpu", cpu);
    host.set("nproc", std::thread::hardware_concurrency());
    return host;
}

/** The result of one invocation, before serialization. */
struct Outcome
{
    json::Value metrics;
    std::vector<double> passSeconds;
    std::size_t goldenChecked = 0;
};

Outcome
runUntraced(const Options &o, const std::vector<Cell> &cells,
            std::vector<CellStats> &stats)
{
    Outcome out;
    const Clock::time_point start = Clock::now();
    for (unsigned p = 0;
         p < o.passes || secondsBetween(start, Clock::now()) < o.seconds;
         ++p) {
        double total = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellRun r = runCell(cells[i], {});
            stats[i].check(r, p == 0, true);
            stats[i].time(r);
            total += r.total();
        }
        out.passSeconds.push_back(total);
        if (p == 0)
            out.goldenChecked = firstRunChecks(o, cells, stats);
    }

    double wall = 0;
    double setup = 0;
    double run = 0;
    double refs = 0;
    for (const CellStats &st : stats) {
        wall += st.minTotal;
        setup += median(st.setups);
        run += st.minRun;
        refs += st.first.metrics.reads + st.first.metrics.writes;
    }
    MetricSet ms;
    ms.add("wall_s", wall, "s");
    ms.add("setup_s", setup, "s");
    ms.add("mrefs_per_s", refs / run / 1e6, "Mrefs/s");
    ms.add("peak_rss_mb", peakRssMb(), "MB");
    out.metrics = ms.take();
    return out;
}

Outcome
runTraced(const Options &o, const std::vector<Cell> &cells,
          std::vector<CellStats> &stats)
{
    // The traced run captures the SLC stream to $TMPDIR and replays it
    // before teardown, while the final memory image is live.
    const char *tmp = std::getenv("TMPDIR");
    const std::string stream = std::string(tmp && *tmp ? tmp : "/tmp") +
                               "/psim_perf-" + std::to_string(getpid()) +
                               ".trace";
    SpanLog spans;
    ReplayTotals replay;
    std::array<double, kNumPhases> phase{};
    double untraced_total = 0;
    double traced_total = 0;
    double ticks = 0;
    double loads_checked = 0;
    double shard_run_s = 0;
    Counts counts;
    // A cell's runs are back to back, so a slow spell on the host hits
    // its untraced and traced runs alike.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun plain = runCell(cells[i], {});
        stats[i].check(plain, true, true);
        for (unsigned p = 0; p < kNumPhases; ++p)
            phase[p] += plain.seconds[p];
        untraced_total += plain.total();
        ticks += static_cast<double>(plain.metrics.execTicks);
        counts += plain.counts;

        TraceWriter writer(stream);
        CellHooks traced;
        traced.spans = &spans;
        traced.slcTrace = &writer;
        traced.beforeTeardown = [&](Machine &m, std::size_t root) {
            writer.close();
            replayStream(cells[i], stream, m, replay, spans, root);
        };
        const CellRun t = runCell(cells[i], traced);
        std::remove(stream.c_str());
        stats[i].check(t, false, true);
        traced_total += t.total();

        // Fuzz cells always run the SC oracle; the others get a run
        // of their own with it.
        std::uint64_t loads = plain.loadsChecked;
        if (!cells[i].program) {
            CellHooks checked;
            checked.oracle = true;
            const CellRun c = runCell(cells[i], checked);
            stats[i].check(c, false, true);
            phase[Oracle] += c.seconds[Oracle];
            loads = c.loadsChecked;
        }
        loads_checked += static_cast<double>(loads);

        Cell sharded = cells[i];
        sharded.cfg.shards = kTraceShards;
        const CellRun s = runCell(sharded, {});
        stats[i].check(s, false, false);
        shard_run_s += s.seconds[Run];
    }
    Outcome out;
    out.goldenChecked = firstRunChecks(o, cells, stats);
    out.passSeconds = {untraced_total, traced_total};

    MetricSet ms;
    for (unsigned p = 0; p < kNumPhases; ++p)
        ms.add(std::string(kPhaseNames[p]) + "_s", phase[p], "s");
    ms.add("sim.ticks_per_s", ticks / phase[Run], "1/s");
    const std::vector<PrefetchScheme> &schemes = check::fuzzSchemes();
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        ms.add(std::string("core.observe_ns.") + toString(schemes[s]),
               replay.observeNs[s] / replay.observations[s], "ns");
    }
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        ms.add(std::string("core.candidates_per_obs.") +
                       toString(schemes[s]),
               replay.candidates[s] / replay.observations[s], "1/obs");
    }
    ms.add("mem.slc_probe_ns", replay.probeNs / replay.probes, "ns");
    ms.add("sim.shard4_speedup", phase[Run] / shard_run_s, "x");
    ms.add("trace.overhead", traced_total / untraced_total - 1, "ratio");
    addCounts(ms, counts, loads_checked);
    out.metrics = ms.take();
    spans.write(o.spans);
    return out;
}

int
perfMain(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const std::vector<Cell> cells = selectCells(o);
    std::vector<CellStats> stats(cells.size());
    const bool traced = !o.spans.empty();
    const Outcome out = traced ? runTraced(o, cells, stats)
                               : runUntraced(o, cells, stats);

    Counts counts;
    double loads_checked = 0;
    json::Value failures = json::Value::makeArray();
    json::Value per_cell = json::Value::makeArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellStats &st = stats[i];
        counts += st.first.counts;
        loads_checked += static_cast<double>(st.first.loadsChecked);
        json::Value c = json::Value::makeObject();
        c.set("id", cells[i].id);
        c.set("refs", st.first.metrics.reads + st.first.metrics.writes);
        if (!traced) {
            c.set("wall_s", st.minTotal);
            c.set("run_s", st.minRun);
            c.set("setup_s", median(st.setups));
        }
        if (!st.failure.empty()) {
            std::printf("FAILED %s: %s\n", cells[i].id.c_str(),
                        st.failure.c_str());
            json::Value f = json::Value::makeObject();
            f.set("cell", cells[i].id);
            f.set("why", st.failure);
            failures.append(std::move(f));
        }
        per_cell.append(std::move(c));
    }
    const std::size_t failed = failures.size();

    json::Value build = json::Value::makeObject();
    build.set("type", PSIM_PERF_BUILD_TYPE);
    build.set("compiler", __VERSION__);
    build.set("audit_compiled", audit::compiledIn());
    json::Value exec = json::Value::makeObject();
    exec.set("jobs", 1);
    exec.set("shards", 0);
    if (traced)
        exec.set("trace_shards", kTraceShards);
    exec.set("passes", static_cast<unsigned>(out.passSeconds.size()));
    json::Value passes = json::Value::makeArray();
    for (double s : out.passSeconds)
        passes.append(s);
    exec.set("pass_seconds", std::move(passes));

    MetricSet count_set;
    addCounts(count_set, counts, loads_checked);
    json::Value doc = json::Value::makeObject();
    doc.set("schema", "psim-perf-v1");
    doc.set("workload", o.workload);
    doc.set("seed", static_cast<unsigned long long>(o.seed));
    doc.set("traced", traced);
    doc.set("host", hostInfo());
    doc.set("build", std::move(build));
    doc.set("exec", std::move(exec));
    doc.set("cells", static_cast<unsigned long long>(cells.size()));
    doc.set("cells_failed", static_cast<unsigned long long>(failed));
    doc.set("cells_checked",
            static_cast<unsigned long long>(out.goldenChecked));
    doc.set("cells_unchecked",
            static_cast<unsigned long long>(cells.size() -
                                            out.goldenChecked));
    doc.set("failures", std::move(failures));
    doc.set("metrics", out.metrics);
    doc.set("counts", count_set.take());
    doc.set("cell_results", std::move(per_cell));

    std::ofstream file(o.out, std::ios::trunc);
    file << json::serialize(doc) << "\n";
    file.flush();
    if (!file)
        psim_fatal("cannot write %s", o.out.c_str());

    std::printf("psim_perf %s seed %llu%s: %zu cells, %zu failed, %zu "
                "checked against goldens, %zu unchecked\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                traced ? " (traced)" : "", cells.size(), failed,
                out.goldenChecked, cells.size() - out.goldenChecked);
    for (const auto &[name, m] : out.metrics.asObject("metrics")) {
        std::printf("  %-34s %.6g %s\n", name.c_str(),
                    m.find("value")->asNumber(name),
                    m.find("unit")->asString(name).c_str());
    }
    return failed ? 2 : 0;
}

} // namespace
} // namespace psim::perf

int
main(int argc, char **argv)
{
    return psim::perf::perfMain(argc, argv);
}
