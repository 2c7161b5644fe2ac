#include "sim/spec.hh"

#include <initializer_list>
#include <limits>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sys/node.hh"

namespace psim::spec
{

namespace
{

/** Reject members outside @p allowed (strict spec parsing). */
void
checkKeys(const json::Members &members,
          std::initializer_list<const char *> allowed,
          const std::string &what)
{
    for (const auto &[key, value] : members) {
        bool known = false;
        for (const char *a : allowed) {
            if (key == a) {
                known = true;
                break;
            }
        }
        if (!known)
            psim_fatal("%s: unknown key '%s'", what.c_str(), key.c_str());
    }
}

const json::Value &
require(const json::Value &doc, const char *key, const std::string &what)
{
    const json::Value *v = doc.find(key);
    if (!v)
        psim_fatal("%s: missing required key '%s'", what.c_str(), key);
    return *v;
}

ConfigPatch
patchFromJson(const json::Value *v, const std::string &what)
{
    ConfigPatch patch;
    if (!v)
        return patch;
    for (const auto &[key, value] : v->asObject(what)) {
        if (!value.isBool() && !value.isNumber() && !value.isString())
            psim_fatal("%s: '%s' must be a scalar, not %s", what.c_str(),
                       key.c_str(), value.typeName());
        patch.emplace_back(key, value);
    }
    return patch;
}

AxisValue
axisValueFromJson(const json::Value &v, const std::string &what)
{
    AxisValue av;
    if (v.isObject()) {
        checkKeys(v.asObject(what), {"value", "id", "label", "config"}, what);
        if (const json::Value *scalar = v.find("value"))
            av.scalar = *scalar;
        av.config = patchFromJson(v.find("config"), what + ": config");
        const json::Value *id = v.find("id");
        if (!id)
            psim_fatal("%s: a value object needs an explicit \"id\"",
                       what.c_str());
        av.id = id->asString(what + ": id");
        if (const json::Value *label = v.find("label"))
            av.label = label->asString(what + ": label");
        else
            av.label = av.id;
    } else {
        av.scalar = v;
        av.id = v.asString(what);
        av.label = av.id;
    }
    if (av.id.empty())
        psim_fatal("%s: empty cell-id fragment", what.c_str());
    return av;
}

/** One fully-resolved grid cell, ready to run. */
struct PlannedCell
{
    std::string id;
    std::vector<std::pair<std::string, std::string>> coords;
    std::string workload;
    MachineConfig cfg;
    unsigned scale = 1;
};

/**
 * Expand every group into cells (row-major, last axis fastest),
 * applying axis semantics and patches. fatal() on bad config keys or
 * values, and on cells with no application.
 */
std::vector<PlannedCell>
expand(const Spec &spec, const std::string &what)
{
    std::vector<PlannedCell> plan;
    MachineConfig spec_cfg; // defaults are the paper's Table 1
    applyConfigPatch(spec_cfg, spec.config, what + ": config");
    for (const Group &g : spec.groups) {
        std::vector<std::size_t> idx(g.axes.size(), 0);
        bool more = true;
        while (more) {
            PlannedCell cell;
            cell.cfg = spec_cfg;
            for (std::size_t a = 0; a < g.axes.size(); ++a) {
                const Axis &axis = g.axes[a];
                const AxisValue &av = axis.values[idx[a]];
                const std::string vwhat = what + ": axis '" + axis.name +
                                          "' value '" + av.id + "'";
                if (!av.scalar.isNull()) {
                    if (axis.name == "app") {
                        cell.workload = av.scalar.asString(vwhat);
                    } else if (axis.name == "scale") {
                        auto n = av.scalar.asUnsigned(
                                vwhat,
                                std::numeric_limits<unsigned>::max());
                        if (n == 0)
                            psim_fatal("%s: scale must be >= 1",
                                       vwhat.c_str());
                        cell.scale = static_cast<unsigned>(n);
                    } else {
                        applyConfigKey(cell.cfg, axis.name, av.scalar,
                                       vwhat);
                    }
                }
                applyConfigPatch(cell.cfg, av.config, vwhat);
                cell.coords.emplace_back(axis.name, av.id);
                if (!cell.id.empty())
                    cell.id += '-';
                cell.id += av.id;
            }
            if (cell.workload.empty())
                psim_fatal("%s: cell '%s' has no application (give the "
                           "group an \"app\" axis)", what.c_str(),
                           cell.id.c_str());
            plan.push_back(std::move(cell));

            more = false;
            for (std::size_t a = g.axes.size(); a-- > 0;) {
                if (++idx[a] < g.axes[a].values.size()) {
                    more = true;
                    break;
                }
                idx[a] = 0;
            }
        }
    }
    return plan;
}

// One setter function per key -- a template instantiation counts as
// one -- so the coverage gate (scripts/coverage.sh) counts each key's
// use by the documented specs on its own.

template <unsigned MachineConfig::*Field>
void
setUnsigned(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.*Field = static_cast<unsigned>(
            v.asUnsigned(ctx, std::numeric_limits<unsigned>::max()));
}

template <Tick MachineConfig::*Field>
void
setTick(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.*Field = v.asUnsigned(ctx, std::numeric_limits<Tick>::max());
}

template <bool MachineConfig::*Field>
void
setBool(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.*Field = v.asBool(ctx);
}

void
setScheme(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.prefetch.scheme = parseScheme(v.asString(ctx));
}

void
setDegree(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.prefetch.degree = static_cast<unsigned>(
            v.asUnsigned(ctx, std::numeric_limits<unsigned>::max()));
}

void
setLookahead(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.prefetch.lookaheadStrides = static_cast<unsigned>(
            v.asUnsigned(ctx, std::numeric_limits<unsigned>::max()));
}

void
setZipfTheta(MachineConfig &cfg, const json::Value &v, const std::string &ctx)
{
    cfg.server.zipfTheta = v.asNumber(ctx);
}

struct ConfigKey
{
    const char *name;
    void (*set)(MachineConfig &, const json::Value &, const std::string &);
};

constexpr ConfigKey kConfigKeys[] = {
    // Machine shape and capacities.
    {"blockSize", setUnsigned<&MachineConfig::blockSize>},
    {"flcSize", setUnsigned<&MachineConfig::flcSize>},
    {"slcSize", setUnsigned<&MachineConfig::slcSize>},
    {"slwbEntries", setUnsigned<&MachineConfig::slwbEntries>},
    // Timing.
    {"memAccessLat", setTick<&MachineConfig::memAccessLat>},
    {"fallThrough", setTick<&MachineConfig::fallThrough>},
    // Protocol options.
    {"sequentialConsistency",
     setBool<&MachineConfig::sequentialConsistency>},
    {"migratoryOpt", setBool<&MachineConfig::migratoryOpt>},
    // Prefetching.
    {"scheme", setScheme},
    {"prefetch.degree", setDegree},
    {"prefetch.lookaheadStrides", setLookahead},
    // Server workload suite.
    {"server.zipfTheta", setZipfTheta},
};

} // namespace

void
applyConfigKey(MachineConfig &cfg, const std::string &key,
               const json::Value &value, const std::string &what)
{
    for (const ConfigKey &k : kConfigKeys) {
        if (key == k.name) {
            k.set(cfg, value, what + ": '" + key + "'");
            return;
        }
    }
    psim_fatal("%s: unknown machine-config key '%s'", what.c_str(),
               key.c_str());
}

void
applyConfigPatch(MachineConfig &cfg, const ConfigPatch &patch,
                 const std::string &what)
{
    for (const auto &[key, value] : patch)
        applyConfigKey(cfg, key, value, what);
}

std::size_t
Spec::groupOffset(std::size_t group) const
{
    std::size_t off = 0;
    for (std::size_t g = 0; g < group; ++g)
        off += groups.at(g).cells();
    return off;
}

std::size_t
Spec::cellIndex(std::size_t group,
                std::initializer_list<std::size_t> idx) const
{
    const Group &g = groups.at(group);
    if (idx.size() != g.axes.size())
        psim_fatal("spec '%s': cellIndex got %zu indices for %zu axes",
                   name.c_str(), idx.size(), g.axes.size());
    std::size_t n = 0;
    std::size_t a = 0;
    for (std::size_t i : idx) {
        const std::size_t count = g.axes[a].values.size();
        if (i >= count)
            psim_fatal("spec '%s': index %zu out of range for axis '%s'",
                       name.c_str(), i, g.axes[a].name.c_str());
        n = n * count + i;
        ++a;
    }
    return groupOffset(group) + n;
}

const Axis &
Spec::axis(std::size_t group, const std::string &axis_name) const
{
    for (const Axis &a : groups.at(group).axes) {
        if (a.name == axis_name)
            return a;
    }
    psim_fatal("spec '%s': group %zu has no axis '%s'", name.c_str(), group,
               axis_name.c_str());
}

void
Spec::overrideApps(const std::vector<std::string> &apps)
{
    if (apps.empty())
        return;
    for (Group &g : groups) {
        for (Axis &a : g.axes) {
            if (a.name != "app")
                continue;
            a.values.clear();
            for (const std::string &app : apps) {
                AxisValue av;
                av.id = app;
                av.label = app;
                av.scalar = json::Value(app);
                a.values.push_back(std::move(av));
            }
        }
    }
}

Spec
parseSpec(const json::Value &doc, const std::string &what)
{
    Spec spec;
    checkKeys(doc.asObject(what),
              {"schema", "name", "report", "config", "run", "grid"}, what);

    const std::string schema =
            require(doc, "schema", what).asString(what + ": schema");
    if (schema != "psim-spec-v1")
        psim_fatal("%s: unsupported schema '%s' (expected psim-spec-v1)",
                   what.c_str(), schema.c_str());
    spec.name = require(doc, "name", what).asString(what + ": name");
    spec.report = require(doc, "report", what).asString(what + ": report");
    if (spec.name.empty() || spec.report.empty())
        psim_fatal("%s: name and report must be nonempty", what.c_str());
    spec.config = patchFromJson(doc.find("config"), what + ": config");
    if (const json::Value *run = doc.find("run")) {
        const std::string rwhat = what + ": run";
        checkKeys(run->asObject(rwhat), {"characterize"}, rwhat);
        if (const json::Value *c = run->find("characterize"))
            spec.characterize = c->asBool(rwhat + ": characterize");
    }

    const auto &grid =
            require(doc, "grid", what).asArray(what + ": grid");
    if (grid.empty())
        psim_fatal("%s: grid must have at least one group", what.c_str());
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        const std::string gwhat = what + ": grid[" + std::to_string(gi) + "]";
        checkKeys(grid[gi].asObject(gwhat), {"axes"}, gwhat);
        Group group;
        const auto &axes = require(grid[gi], "axes", gwhat)
                                   .asArray(gwhat + ".axes");
        if (axes.empty())
            psim_fatal("%s: axes must be nonempty", gwhat.c_str());
        for (std::size_t ai = 0; ai < axes.size(); ++ai) {
            const std::string awhat =
                    gwhat + ".axes[" + std::to_string(ai) + "]";
            checkKeys(axes[ai].asObject(awhat), {"name", "values"}, awhat);
            Axis axis;
            axis.name = require(axes[ai], "name", awhat)
                                .asString(awhat + ".name");
            if (axis.name.empty())
                psim_fatal("%s: axis name must be nonempty", awhat.c_str());
            const auto &values = require(axes[ai], "values", awhat)
                                         .asArray(awhat + ".values");
            if (values.empty())
                psim_fatal("%s: values must be nonempty", awhat.c_str());
            for (std::size_t vi = 0; vi < values.size(); ++vi)
                axis.values.push_back(axisValueFromJson(
                        values[vi],
                        awhat + ".values[" + std::to_string(vi) + "]"));
            group.axes.push_back(std::move(axis));
        }
        spec.groups.push_back(std::move(group));
    }

    // Dry-run the full expansion now: every config key, scheme name and
    // app/scale value is checked, every expanded machine validates, and
    // cell ids are unique -- a bad spec dies before any cell runs.
    std::unordered_set<std::string> ids;
    for (const PlannedCell &cell : expand(spec, what)) {
        cell.cfg.validate();
        if (!ids.insert(cell.id).second)
            psim_fatal("%s: duplicate cell id '%s' (give axis values "
                       "distinct \"id\"s)", what.c_str(), cell.id.c_str());
    }
    return spec;
}

Spec
loadSpec(const std::string &path)
{
    Spec spec = parseSpec(json::loadFile(path), path);
    std::string base = path;
    if (std::size_t slash = base.find_last_of('/');
        slash != std::string::npos)
        base = base.substr(slash + 1);
    if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0)
        base = base.substr(0, base.size() - 5);
    if (spec.name != base)
        psim_fatal("%s: spec name '%s' does not match the file name "
                   "(rename one of them)", path.c_str(), spec.name.c_str());
    return spec;
}

Results
runSpec(const Spec &spec, const ExecOptions &exec)
{
    const std::string what = "spec '" + spec.name + "'";
    std::vector<PlannedCell> plan = expand(spec, what);
    for (PlannedCell &cell : plan) {
        if (exec.procs)
            applyProcCount(cell.cfg, exec.procs);
        cell.cfg.validate();
    }

    Results out;
    out.cells.resize(plan.size());
    runGrid(plan.size(), resolveJobs(exec.jobs), [&](std::size_t i) {
        const PlannedCell &cell = plan[i];
        apps::RunOptions ropts = exec.obs;
        ropts.characterize = spec.characterize;
        ropts.scale = cell.scale;
        ropts.cell = cell.id;

        apps::Run run = apps::runWorkload(cell.workload, cell.cfg, ropts);
        if (!run.finished)
            psim_fatal("cell '%s': %s did not run to completion",
                       cell.id.c_str(), cell.workload.c_str());
        if (!run.verified)
            psim_fatal("cell '%s': %s failed numerical verification",
                       cell.id.c_str(), cell.workload.c_str());

        CellResult r;
        r.id = cell.id;
        r.coords = cell.coords;
        r.metrics = run.metrics;
        for (unsigned n = 0; n < run.machine->numProcs(); ++n) {
            Node &node = run.machine->node(static_cast<NodeId>(n));
            r.writeStall += node.cpu().writeStall.value();
            r.upgrades += node.slc().upgrades.value();
            r.migratoryGrants += node.mem().migratoryGrants.value();
        }
        const Slc &slc0 = run.machine->node(0).slc();
        r.node0DemandReadMisses = slc0.demandReadMisses.value();
        r.node0ReplacementMisses = slc0.missesReplacement.value();
        if (ropts.characterize) {
            r.characterized = true;
            r.characterizer = run.machine->characterizer()->finalize();
        }
        out.cells[i] = std::move(r);
    });
    return out;
}

std::string
resultsDocument(const Spec &spec, const ExecOptions &exec,
                const Results &results)
{
    json::Value doc = json::Value::makeObject();
    doc.set("schema", "psim-results-v1");
    doc.set("name", spec.name);
    doc.set("report", spec.report);

    json::Value run = json::Value::makeObject();
    run.set("procs", exec.procs);
    doc.set("run", std::move(run));

    json::Value cells = json::Value::makeArray();
    for (const CellResult &c : results.cells) {
        json::Value cell = json::Value::makeObject();
        cell.set("id", c.id);
        json::Value coords = json::Value::makeObject();
        for (const auto &[axis, id] : c.coords)
            coords.set(axis, id);
        cell.set("coords", std::move(coords));

        json::Value m = json::Value::makeObject();
        m.set("exec_ticks",
              static_cast<unsigned long long>(c.metrics.execTicks));
        m.set("reads", c.metrics.reads);
        m.set("writes", c.metrics.writes);
        m.set("slc_reads", c.metrics.slcReads);
        m.set("read_misses", c.metrics.readMisses);
        m.set("read_stall", c.metrics.readStall);
        m.set("misses_cold", c.metrics.missesCold);
        m.set("misses_coherence", c.metrics.missesCoherence);
        m.set("misses_replacement", c.metrics.missesReplacement);
        m.set("pf_issued", c.metrics.pfIssued);
        m.set("pf_useful", c.metrics.pfUseful);
        m.set("prefetch_efficiency", c.metrics.prefetchEfficiency());
        m.set("flits", c.metrics.flits);
        m.set("bus_transactions", c.metrics.busTransactions);
        m.set("write_stall", c.writeStall);
        m.set("upgrades", c.upgrades);
        m.set("migratory_grants", c.migratoryGrants);
        m.set("node0_demand_read_misses", c.node0DemandReadMisses);
        m.set("node0_replacement_misses", c.node0ReplacementMisses);
        cell.set("metrics", std::move(m));

        if (c.characterized) {
            const StrideCharacterizer::Report &rep = c.characterizer;
            json::Value ch = json::Value::makeObject();
            ch.set("total_misses",
                   static_cast<unsigned long long>(rep.totalMisses));
            ch.set("stride_misses",
                   static_cast<unsigned long long>(rep.strideMisses));
            ch.set("num_sequences",
                   static_cast<unsigned long long>(rep.numSequences));
            ch.set("stride_fraction", rep.strideFraction);
            ch.set("avg_sequence_length", rep.avgSequenceLength);
            json::Value top = json::Value::makeArray();
            std::size_t shown = 0;
            for (const auto &[stride, fraction] : rep.topStrides) {
                if (shown++ == 8)
                    break;
                json::Value entry = json::Value::makeObject();
                entry.set("stride", static_cast<long long>(stride));
                entry.set("fraction", fraction);
                top.append(std::move(entry));
            }
            ch.set("top_strides", std::move(top));
            cell.set("characterizer", std::move(ch));
        }
        cells.append(std::move(cell));
    }
    doc.set("cells", std::move(cells));
    return json::serialize(doc) + "\n";
}

} // namespace psim::spec
