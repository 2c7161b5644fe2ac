/**
 * @file
 * Declarative experiment specs.
 *
 * One JSON document (schema `psim-spec-v1`, see scripts/spec_schema.json
 * and the files under specs/) describes a whole table/figure grid: config
 * overrides x prefetching schemes x workloads, organized as groups of
 * crossed axes. The spec is parsed strictly -- unknown keys, unknown
 * machine-config fields, and type mismatches are fatal -- expanded into
 * independent cells, executed through the runGrid() parallel runner,
 * and the measured cells are emitted as one canonical `psim-results-v1`
 * document (scripts/results_schema.json) that golden `BENCH_*.json`
 * snapshots and scripts/diff_results.py regression-gate in CI.
 *
 * The bench layer (bench/run_spec.cc and bench/render.cc) adds the
 * table renderers that turn a Results into the paper's printed layout;
 * everything in this header is presentation-free grid plumbing.
 *
 * ## Spec format
 *
 * ```json
 * {
 *   "schema": "psim-spec-v1",
 *   "name": "degree_sweep",        // must match the file's basename
 *   "report": "ablation_degree",   // renderer id (bench/render.cc)
 *   "config": {"scheme": "seq"},   // machine overrides for every cell
 *   "run": {"characterize": true}, // run the miss characterizer
 *   "grid": [
 *     {
 *       "axes": [
 *         {"name": "app", "values": ["lu", "ocean"]},
 *         {"name": "prefetch.degree",
 *          "values": [{"value": 1, "id": "d1"}, {"value": 2, "id": "d2"}]}
 *       ]
 *     }
 *   ]
 * }
 * ```
 *
 * Axis semantics, applied to each cell in axis order:
 *  - "app": the workload (values must be strings);
 *  - "scale": the workload scale factor, >= 1 (1 when no axis sets it);
 *  - any machine-config key ("scheme", "blockSize", "slcSize",
 *    "prefetch.degree", "sequentialConsistency", ...): that field is
 *    set to the value; "scheme" goes through parseScheme().
 *
 * A bare value must be a string, and it is its own cell-id fragment
 * and label. Any other value is an object {"value": ..., "id": "...",
 * "label": "...", "config": {...}} with a mandatory "id": the optional
 * scalar keeps the axis semantics, the config patch stacks on top, and
 * the label defaults to the id. An object with no "value" applies only
 * its patch, which makes the axis name purely descriptive ("variant",
 * "point") -- that is how heterogeneous sweeps like sensitivity points
 * are declared.
 *
 * Cells expand row-major (the last axis varies fastest), groups in
 * order; a cell's id is its axis fragments joined with '-'.
 */

#ifndef PSIM_SIM_SPEC_HH
#define PSIM_SIM_SPEC_HH

#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "apps/driver.hh"
#include "core/characterizer.hh"
#include "sim/json.hh"
#include "sys/machine.hh"

namespace psim::spec
{

/** Machine-config overrides as ordered (key, value) pairs. */
using ConfigPatch = std::vector<std::pair<std::string, json::Value>>;

/**
 * Set one machine-config field by key ("blockSize", "prefetch.degree",
 * "sequentialConsistency", ...; the table in spec.cc lists all twelve).
 * fatal() -- blaming @p what -- on an unknown key or a value of the
 * wrong type.
 */
void applyConfigKey(MachineConfig &cfg, const std::string &key,
                    const json::Value &value, const std::string &what);

/** Apply every entry of @p patch in order. */
void applyConfigPatch(MachineConfig &cfg, const ConfigPatch &patch,
                      const std::string &what);

/** One point along an axis. */
struct AxisValue
{
    std::string id;     ///< cell-id fragment
    std::string label;  ///< display label (defaults to id)
    json::Value scalar; ///< the semantic payload; null when patch-only
    ConfigPatch config;
};

struct Axis
{
    std::string name;
    std::vector<AxisValue> values;
};

/** A crossed block of axes. */
struct Group
{
    std::vector<Axis> axes;

    std::size_t
    cells() const
    {
        std::size_t n = 1;
        for (const Axis &a : axes)
            n *= a.values.size();
        return n;
    }
};

struct Spec
{
    std::string name;
    std::string report;
    ConfigPatch config;
    bool characterize = false; ///< run the miss characterizer in every cell
    std::vector<Group> groups;

    std::size_t
    cellCount() const
    {
        std::size_t n = 0;
        for (const Group &g : groups)
            n += g.cells();
        return n;
    }

    /** Flat index of @p group's first cell. */
    std::size_t groupOffset(std::size_t group) const;

    /** Flat index of the cell at @p idx (one index per axis). */
    std::size_t cellIndex(std::size_t group,
                          std::initializer_list<std::size_t> idx) const;

    /** The named axis of @p group; fatal() when absent. */
    const Axis &axis(std::size_t group, const std::string &name) const;

    /**
     * Replace the values of every "app" axis with @p apps -- the
     * --apps override, for reduced smoke grids.
     */
    void overrideApps(const std::vector<std::string> &apps);
};

/**
 * Parse and strictly validate a psim-spec-v1 document. Unknown keys
 * anywhere, bad types, empty grids/axes, unknown machine-config keys
 * and groups without an app axis are all fatal, with @p what (file
 * name) in the message.
 */
Spec parseSpec(const json::Value &doc, const std::string &what);

/** Load @p path and parseSpec() it; the name must match the basename. */
Spec loadSpec(const std::string &path);

/** Everything measured for one grid cell. */
struct CellResult
{
    std::string id;
    /** (axis name, value id) in axis order. */
    std::vector<std::pair<std::string, std::string>> coords;
    RunMetrics metrics;
    double writeStall = 0;       ///< CPU write-stall ticks, all nodes
    double upgrades = 0;         ///< SLC S->M upgrades, all nodes
    double migratoryGrants = 0;  ///< directory migratory grants, all nodes
    double node0DemandReadMisses = 0;
    double node0ReplacementMisses = 0;
    bool characterized = false;
    StrideCharacterizer::Report characterizer; ///< valid if characterized
};

/** Execution parameters that are *not* part of the experiment spec. */
struct ExecOptions
{
    unsigned jobs = 0;  ///< grid threads; 0: hardware concurrency
    unsigned procs = 0; ///< machine-size override (0: spec/paper value)
    /** Observability flags; runSpec() fills in each cell's own fields. */
    apps::RunOptions obs;
};

struct Results
{
    std::vector<CellResult> cells; ///< in flat cell order
};

/**
 * Expand the spec into cells and run them on exec.jobs threads via
 * runGrid(). Every run must finish and verify (fatal otherwise).
 * Results are deterministic and independent of the job count.
 */
Results runSpec(const Spec &spec, const ExecOptions &exec);

/**
 * The canonical `psim-results-v1` document for one executed spec:
 * one line of JSON with per-cell metrics (and the characterizer
 * report where measured) plus the one exec input that changes cell
 * values ("procs"). It holds no host measurement, so it is a pure
 * function of the spec and @p exec: byte-identical at any job count.
 * Host time is measured by bench/perf only.
 */
std::string resultsDocument(const Spec &spec, const ExecOptions &exec,
                            const Results &results);

} // namespace psim::spec

#endif // PSIM_SIM_SPEC_HH
