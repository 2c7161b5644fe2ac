#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "apps/driver.hh"
#include "apps/workload.hh"
#include "check/fuzz.hh"
#include "check/oracle.hh"
#include "perf.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace psim::perf
{

const char *const kPhaseNames[kNumPhases] = {
    "sys.machine_ctor", "apps.attach",  "sys.run",    "apps.verify",
    "sys.invariants",   "check.oracle", "sim.export", "sys.teardown",
};

namespace
{

/** Programs in the fuzz-oracle workload. */
constexpr unsigned kFuzzPrograms = 100;

std::vector<Cell>
appGrid(const std::vector<std::string> &apps,
        const std::vector<PrefetchScheme> &schemes, unsigned procs)
{
    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        for (PrefetchScheme s : schemes) {
            Cell c;
            // toString() yields the golden grids' scheme ids, so the
            // cell ids match the BENCH_*.json cells.
            c.id = app + "-" + toString(s);
            c.app = app;
            if (procs)
                applyProcCount(c.cfg, procs);
            c.cfg.prefetch.scheme = s;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/*
 * fuzzConfig and imageDigest copy the file-local configFor and
 * imageDigest of src/check/fuzz.cc, which check/fuzz.hh does not
 * export. perf_smoke's --cross-check runs a fuzz cell through
 * check::runOneScheme and compares digests and checked loads, so a
 * drift between the copies fails that test. Exporting the originals
 * from check/fuzz.hh would remove the copies.
 */

/** The machine check::runOneScheme builds for @p spec. */
MachineConfig
fuzzConfig(const check::ProgramSpec &spec, PrefetchScheme scheme)
{
    MachineConfig cfg;
    cfg.numProcs = spec.threads;
    if (cfg.numProcs < 4)
        cfg.meshCols = cfg.numProcs;
    cfg.prefetch.scheme = scheme;
    cfg.prefetch.degree = spec.degree;
    cfg.seed = spec.seed;
    return cfg;
}

std::vector<Cell>
fuzzCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (unsigned i = 0; i < kFuzzPrograms; ++i) {
        // Program shapes (threads, phases, iteration counts) come from
        // the golden seed and only the data from --seed: shapes alone
        // move a 100-program total by about 10% between seed ranges,
        // which would swamp the host-time bounds.
        check::ProgramSpec spec =
                check::ProgramSpec::generate(goldenSeed() + i);
        spec.seed = seed + i;
        for (PrefetchScheme s : check::fuzzSchemes()) {
            Cell c;
            c.id = "p" + std::to_string(spec.seed) + "-" + toString(s);
            c.cfg = fuzzConfig(spec, s);
            c.program = spec;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** FNV-1a over the non-zero pages of @p store in address order. */
std::uint64_t
imageDigest(const BackingStore &store)
{
    std::map<Addr, const std::uint8_t *> pages;
    store.forEachPage([&](Addr base, const std::uint8_t *bytes, unsigned) {
        pages.emplace(base, bytes);
    });
    const unsigned len = store.pageSize();
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    for (const auto &[base, bytes] : pages) {
        bool zero = true;
        for (unsigned i = 0; i < len && zero; ++i)
            zero = bytes[i] == 0;
        if (zero)
            continue;
        for (unsigned b = 0; b < 8; ++b)
            mix(static_cast<std::uint8_t>(base >> (8 * b)));
        for (unsigned i = 0; i < len; ++i)
            mix(bytes[i]);
    }
    return h;
}

double
scalar(const stats::Group &g, const char *name)
{
    const stats::Scalar *s = g.findScalar(name);
    psim_assert(s, "statistics group %s has no scalar %s",
                g.name().c_str(), name);
    return s->value();
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::string tail(suffix);
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

Counts
countsOf(Machine &m)
{
    Counts c;
    for (const auto &group : m.registry().groups()) {
        const stats::Group &g = *group;
        const std::string &name = g.name();
        if (endsWith(name, ".cpu")) {
            c.refs += scalar(g, "loads") + scalar(g, "stores");
        } else if (endsWith(name, ".slc")) {
            c.slcRequests +=
                    scalar(g, "demandReads") + scalar(g, "writeRequests");
            c.slcReadMisses += scalar(g, "demandReadMisses");
            c.pfIssued += scalar(g, "pfIssued");
            c.pfUseful +=
                    scalar(g, "pfUsefulTagged") + scalar(g, "pfUsefulLate");
        } else if (endsWith(name, ".bus")) {
            c.busTransactions += scalar(g, "transactions");
            c.busWaitTicks += scalar(g, "waitTicks");
        } else if (endsWith(name, ".mem")) {
            c.dirRequests += scalar(g, "readReqs") +
                             scalar(g, "readExReqs") +
                             scalar(g, "upgradeReqs");
            c.dirQueued += scalar(g, "queuedAtBusyEntry");
        } else if (name == "mesh") {
            c.netMessages += scalar(g, "messages");
            c.netFlits += scalar(g, "flits");
        }
    }
    c.netLatencySum = m.mesh().msgLatency.sum();
    c.netLatencyCount = static_cast<double>(m.mesh().msgLatency.count());
    return c;
}

/** RunMetrics fields as named in psim-results-v1 documents. */
constexpr std::pair<const char *, double RunMetrics::*> kMetricFields[] = {
    {"reads", &RunMetrics::reads},
    {"writes", &RunMetrics::writes},
    {"slc_reads", &RunMetrics::slcReads},
    {"read_misses", &RunMetrics::readMisses},
    {"read_stall", &RunMetrics::readStall},
    {"misses_cold", &RunMetrics::missesCold},
    {"misses_coherence", &RunMetrics::missesCoherence},
    {"misses_replacement", &RunMetrics::missesReplacement},
    {"pf_issued", &RunMetrics::pfIssued},
    {"pf_useful", &RunMetrics::pfUseful},
    {"flits", &RunMetrics::flits},
    {"bus_transactions", &RunMetrics::busTransactions},
};

} // namespace

Counts &
Counts::operator+=(const Counts &o)
{
    refs += o.refs;
    slcRequests += o.slcRequests;
    slcReadMisses += o.slcReadMisses;
    busTransactions += o.busTransactions;
    busWaitTicks += o.busWaitTicks;
    dirRequests += o.dirRequests;
    dirQueued += o.dirQueued;
    pfIssued += o.pfIssued;
    pfUseful += o.pfUseful;
    netMessages += o.netMessages;
    netFlits += o.netFlits;
    netLatencySum += o.netLatencySum;
    netLatencyCount += o.netLatencyCount;
    return *this;
}

std::size_t
SpanLog::open(const std::string &trace, std::size_t parent, std::string name)
{
    const Clock::time_point now = Clock::now();
    _spans.push_back(Span{trace, parent, std::move(name), now, now});
    return _spans.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    _spans.at(id).end = Clock::now();
}

void
SpanLog::write(const std::string &path) const
{
    auto ns = [this](Clock::time_point t) {
        return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t - _origin)
                        .count());
    };
    json::Value spans = json::Value::makeArray();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        json::Value v = json::Value::makeObject();
        v.set("trace", s.trace);
        v.set("id", static_cast<unsigned long long>(i));
        v.set("parent", s.parent == kNoParent
                                ? json::Value()
                                : json::Value(static_cast<unsigned long long>(
                                          s.parent)));
        v.set("name", s.name);
        v.set("start_ns", ns(s.start));
        v.set("end_ns", ns(s.end));
        spans.append(std::move(v));
    }
    json::Value doc = json::Value::makeObject();
    doc.set("schema", "psim-perf-spans-v1");
    doc.set("spans", std::move(spans));
    std::ofstream out(path, std::ios::trunc);
    out << json::serialize(doc) << "\n";
    out.flush();
    if (!out)
        psim_fatal("cannot write spans to %s", path.c_str());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig6", "server-nextgen", "mesh64", "fuzz-oracle"};
    return names;
}

std::vector<Cell>
workloadCells(const std::string &workload, std::uint64_t seed)
{
    using S = PrefetchScheme;
    std::vector<Cell> cells;
    if (workload == "fig6") {
        cells = appGrid(apps::paperWorkloads(),
                        {S::None, S::IDet, S::DDet, S::Sequential}, 0);
    } else if (workload == "server-nextgen") {
        cells = appGrid(apps::serverWorkloads(),
                        {S::None, S::Sequential, S::MultiStride,
                         S::PtrChase, S::Perceptron},
                        0);
    } else if (workload == "mesh64") {
        cells = appGrid({"lu", "ocean", "kvstore", "bfs"}, {S::Sequential},
                        64);
    } else if (workload == "fuzz-oracle") {
        return fuzzCells(seed);
    } else {
        psim_fatal("unknown workload '%s' (known: fig6, server-nextgen, "
                   "mesh64, fuzz-oracle)", workload.c_str());
    }
    for (Cell &c : cells)
        c.cfg.seed = seed;
    return cells;
}

CellRun
runCell(const Cell &cell, const CellHooks &hooks)
{
    CellRun r;
    const bool fuzz = cell.program.has_value();
    const bool oracle = fuzz || hooks.oracle;
    SpanLog *spans = hooks.spans;
    const std::size_t root =
            spans ? spans->open(cell.id, SpanLog::kNoParent, "cell") : 0;
    auto timed = [&](Phase p, auto &&fn) {
        const std::size_t span =
                spans ? spans->open(cell.id, root, kPhaseNames[p]) : 0;
        const Clock::time_point t0 = Clock::now();
        fn();
        r.seconds[p] = secondsBetween(t0, Clock::now());
        if (spans)
            spans->close(span);
    };

    std::unique_ptr<Machine> m;
    std::unique_ptr<apps::Workload> wl;
    std::unique_ptr<check::AccessLog> log;
    check::Oracle sc(cell.cfg.pageSize);
    timed(Ctor, [&] { m = std::make_unique<Machine>(cell.cfg); });
    timed(Attach, [&] {
        if (fuzz)
            wl = std::make_unique<check::FuzzWorkload>(*cell.program);
        else
            wl = apps::makeWorkload(cell.app, 1);
        if (oracle) {
            log = std::make_unique<check::AccessLog>();
            m->enableCommitRecording(*log);
        }
        if (hooks.slcTrace)
            m->enableTracing(*hooks.slcTrace);
        wl->attach(*m);
        if (oracle)
            sc.snapshotInitial(m->store());
    });
    timed(Run, [&] {
        m->run(fuzz ? check::FuzzOptions{}.tickLimit : kTickNever);
    });
    r.finished = m->allFinished();
    if (r.finished) {
        timed(Verify, [&] { r.verified = wl->verify(*m); });
        timed(Invariants, [&] { m->checkCoherenceInvariants(); });
    }
    if (oracle) {
        check::OracleReport rep;
        timed(Oracle, [&] { rep = sc.check(*log, m->store(), nullptr); });
        r.loadsChecked = rep.loadsChecked;
        if (!rep.ok()) {
            r.oracleFailure = strfmt("%llu SC-oracle divergences; first: %s",
                    (unsigned long long)rep.total,
                    rep.divergences.front().describe().c_str());
        }
    }
    timed(Export, [&] {
        r.metrics = m->metrics();
        std::ostringstream os;
        m->dumpStatsJson(os);
    });

    r.counts = countsOf(*m);
    if (fuzz)
        r.digest = imageDigest(m->store());
    if (hooks.beforeTeardown)
        hooks.beforeTeardown(*m, root);

    timed(Teardown, [&] {
        wl.reset();
        m.reset();
        log.reset();
    });
    if (spans)
        spans->close(root);
    return r;
}

std::uint64_t
goldenSeed()
{
    return MachineConfig{}.seed;
}

std::map<std::string, RunMetrics>
loadGoldens(const std::string &workload, const std::string &root)
{
    std::map<std::string, RunMetrics> out;
    std::string file;
    if (workload == "fig6")
        file = "BENCH_fig6.json";
    else if (workload == "server-nextgen")
        file = "BENCH_extension_nextgen.json";
    else
        return out;
    const std::string path = root + "/" + file;
    auto member = [&path](const json::Value &v,
                          const char *key) -> const json::Value & {
        const json::Value *m = v.find(key);
        if (!m)
            psim_fatal("%s: missing '%s'", path.c_str(), key);
        return *m;
    };
    const json::Value doc = json::loadFile(path);
    for (const json::Value &cell :
         member(doc, "cells").asArray(path + ": cells")) {
        const std::string what = path + ": cell";
        const json::Value &m = member(cell, "metrics");
        RunMetrics g;
        g.execTicks = static_cast<Tick>(member(m, "exec_ticks").asUnsigned(
                what, std::numeric_limits<Tick>::max()));
        for (const auto &[name, field] : kMetricFields)
            g.*field = member(m, name).asNumber(what + " " + name);
        out.emplace(member(cell, "id").asString(what), g);
    }
    return out;
}

std::string
metricsMismatch(const RunMetrics &got, const RunMetrics &want)
{
    if (got.execTicks != want.execTicks) {
        return strfmt("exec_ticks %llu != %llu",
                      (unsigned long long)got.execTicks,
                      (unsigned long long)want.execTicks);
    }
    for (const auto &[name, field] : kMetricFields) {
        if (got.*field != want.*field)
            return strfmt("%s %.17g != %.17g", name, got.*field,
                          want.*field);
    }
    return "";
}

std::string
crossCheck(const Cell &cell, const CellRun &run)
{
    if (cell.program) {
        check::SchemeRun ref = check::runOneScheme(*cell.program,
                cell.cfg.prefetch.scheme, TestHooks{},
                check::FuzzOptions{}.tickLimit);
        if (ref.finished != run.finished || ref.verified != run.verified)
            return "finished/verified differ from check::runOneScheme";
        if (ref.imageDigest != run.digest)
            return "image digest differs from check::runOneScheme";
        if (ref.oracle.loadsChecked != run.loadsChecked)
            return "checked loads differ from check::runOneScheme";
        return "";
    }
    apps::Run ref = apps::runWorkload(cell.app, cell.cfg);
    if (ref.finished != run.finished || ref.verified != run.verified)
        return "finished/verified differ from apps::runWorkload";
    const std::string diff = metricsMismatch(run.metrics, ref.metrics);
    return diff.empty() ? "" : "apps::runWorkload: " + diff;
}

} // namespace psim::perf
