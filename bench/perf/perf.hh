/**
 * @file
 * psim_perf: the pinned host-time benchmark of psim.
 *
 * A workload is a fixed list of cells (one machine configuration plus
 * one program each). The driver times every cell phase by phase from
 * outside, around each layer's public call, so no instrumentation sits
 * inside the simulator. See README.md in this directory for the
 * metrics, their bounds and how to read the spans.
 */

#ifndef PSIM_BENCH_PERF_PERF_HH
#define PSIM_BENCH_PERF_PERF_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/fuzzgen.hh"
#include "sim/config.hh"
#include "sys/machine.hh"

namespace psim::perf
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The timed phases of one cell, in execution order. */
enum Phase : unsigned
{
    Ctor,       ///< Machine(cfg)
    Attach,     ///< workload construction + Workload::attach
    Run,        ///< Machine::run
    Verify,     ///< Workload::verify
    Invariants, ///< Machine::checkCoherenceInvariants
    Oracle,     ///< check::Oracle::check (oracle-checked cells only)
    Export,     ///< Machine::metrics + dumpStatsJson into memory
    Teardown,   ///< destruction of workload, machine and commit log
    kNumPhases,
};

/** Span names of the phases; the per-layer metric is NAME + "_s". */
extern const char *const kPhaseNames[kNumPhases];

/**
 * In-memory span log, written once when the benchmark ends. A span
 * names its trace (the cell id), its parent span and its interval.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    /** Open a span now; @return its id. */
    std::size_t open(const std::string &trace, std::size_t parent,
                     std::string name);

    /** Close span @p id now. */
    void close(std::size_t id);

    /** Write every span as a psim-perf-spans-v1 JSON document. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string trace;
        std::size_t parent;
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
    };

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** One benchmark cell: a machine configuration and its program. */
struct Cell
{
    std::string id;
    std::string app; ///< workload registry name (unused for fuzz cells)
    MachineConfig cfg;
    /** The generated program of a fuzz-oracle cell. */
    std::optional<check::ProgramSpec> program;
};

/** Exact work counts of one run, from Machine::registry(). */
struct Counts
{
    double refs = 0;
    double slcRequests = 0;
    double slcReadMisses = 0;
    double busTransactions = 0;
    double busWaitTicks = 0;
    double dirRequests = 0;
    double dirQueued = 0;
    double pfIssued = 0;
    double pfUseful = 0;
    double netMessages = 0;
    double netFlits = 0;
    double netLatencySum = 0;
    double netLatencyCount = 0;

    bool operator==(const Counts &) const = default;
    Counts &operator+=(const Counts &o);
};

/** Everything one execution of a cell produced. */
struct CellRun
{
    std::array<double, kNumPhases> seconds{};
    bool finished = false;
    bool verified = false;
    RunMetrics metrics;
    Counts counts;
    std::uint64_t digest = 0;  ///< final memory image (fuzz cells)
    std::uint64_t loadsChecked = 0; ///< loads the SC oracle checked
    std::string oracleFailure; ///< empty when accepted or not run

    double
    total() const
    {
        double t = 0;
        for (double s : seconds)
            t += s;
        return t;
    }

    double setup() const { return seconds[Ctor] + seconds[Attach]; }
};

/** Observers attached to one execution of a cell. */
struct CellHooks
{
    /** Record commits and run the SC oracle (fuzz cells always do). */
    bool oracle = false;
    /** Record the cell's spans here (null: untraced). */
    SpanLog *spans = nullptr;
    /** Capture the SLC reference stream here (null: none). */
    TraceWriter *slcTrace = nullptr;
    /**
     * Called after the export phase and before teardown, untimed, with
     * the machine and the cell's root span (traced runs only).
     */
    std::function<void(Machine &, std::size_t root_span)> beforeTeardown;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Expand @p workload into its cells for @p seed; fatal when unknown. */
std::vector<Cell> workloadCells(const std::string &workload,
                                std::uint64_t seed);

/** Execute one cell, timing each phase. */
CellRun runCell(const Cell &cell, const CellHooks &hooks);

/** The seed every root BENCH_*.json golden was recorded at. */
std::uint64_t goldenSeed();

/**
 * The golden RunMetrics of @p workload's cells by cell id, read from
 * the root BENCH_*.json under @p root; empty when the workload has no
 * golden grid.
 */
std::map<std::string, RunMetrics> loadGoldens(const std::string &workload,
                                              const std::string &root);

/** Field-by-field comparison; empty when @p got equals @p want. */
std::string metricsMismatch(const RunMetrics &got, const RunMetrics &want);

/**
 * Re-run @p cell through the library's own one-call path
 * (apps::runWorkload, or check::runOneScheme for fuzz cells) and
 * compare with the phase-by-phase @p run; empty when they agree.
 */
std::string crossCheck(const Cell &cell, const CellRun &run);

/** Host cost of the offline SLC-stream replay, summed over cells. */
struct ReplayTotals
{
    /** Per scheme, in check::fuzzSchemes() order. */
    std::vector<double> observeNs;
    std::vector<double> observations;
    std::vector<double> candidates;
    double probeNs = 0;
    double probes = 0;

    ReplayTotals();
};

/**
 * Replay the SLC reference stream at @p trace_path, captured from
 * @p cell on machine @p m, through every scheme's observeRead and
 * through a CacheArray of the cell's SLC geometry; add the host cost
 * to @p acc and record a "replay" span under span @p root.
 */
void replayStream(const Cell &cell, const std::string &trace_path,
                  Machine &m, ReplayTotals &acc, SpanLog &spans,
                  std::size_t root);

} // namespace psim::perf

#endif // PSIM_BENCH_PERF_PERF_HH
