/**
 * @file
 * One-call experiment driver: build a machine, attach a workload, run
 * to completion, verify the numerical result, and collect the paper's
 * metrics. run_spec, psim_cli and the integration tests all go
 * through this.
 */

#ifndef PSIM_APPS_DRIVER_HH
#define PSIM_APPS_DRIVER_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "apps/workload.hh"
#include "sys/machine.hh"

namespace psim::apps
{

struct Run
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Workload> workload;
    RunMetrics metrics;
    bool verified = false;
    bool finished = false;
};

/**
 * How to run one workload. Besides the run itself it holds the
 * command-line observability flags shared by run_spec and psim_cli
 * (all read-only: enabling any of them never changes simulated
 * behaviour or aggregate statistics):
 *
 *   --stats-json PREFIX      JSON stats dump per run
 *   --sample-interval N      sampler period in ticks (with --stats-json
 *                            the series lands in the JSON document)
 *   --sample-csv PREFIX      sampler time series as CSV per run
 *   --chrome-trace PREFIX    chrome://tracing / Perfetto event file
 *   --chrome-window A:B      restrict chrome-trace recording to [A, B]
 *
 * PREFIX is a path prefix: a grid runs many cells, and runWorkload()
 * writes "<prefix><cell>.json" / ".csv" for each. With an empty cell
 * (a single run) PREFIX is the path itself.
 */
struct RunOptions
{
    unsigned scale = 1;
    bool characterize = false;    ///< attach Table-2/3 characterizers
    TraceWriter *trace = nullptr; ///< record the SLC reference stream

    std::string cell; ///< grid cell id; empty: paths used verbatim
    std::string statsJson;
    std::string sampleCsv;
    std::string chromeTrace;
    Tick sampleInterval = 0; ///< 0: no sampler
    Tick chromeStart = 0;
    Tick chromeEnd = kTickNever;

    /**
     * Try to consume argv[*i] (and its value). @return true when the
     * argument was one of the observability flags; *i is advanced past
     * any consumed value. Fatal on a missing or malformed value.
     */
    bool parseArg(int argc, char **argv, int *i);
};

/**
 * Run @p workload_name on a machine configured by @p cfg, check the
 * coherence invariants once it finishes, and write the files @p opts
 * asks for (fatal when one cannot be written).
 */
Run runWorkload(const std::string &workload_name, const MachineConfig &cfg,
                const RunOptions &opts = {});

/** Open @p path for writing and stream @p emit into it (fatal on error). */
void writeFile(const std::string &path,
               const std::function<void(std::ostream &)> &emit);

} // namespace psim::apps

#endif // PSIM_APPS_DRIVER_HH
