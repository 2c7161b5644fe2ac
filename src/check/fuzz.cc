#include "check/fuzz.hh"

#include <algorithm>
#include <sstream>

#include "apps/driver.hh"
#include "check/shrink.hh"
#include "sim/audit.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sys/machine.hh"

namespace psim::check
{

const std::vector<PrefetchScheme> &
fuzzSchemes()
{
    static const std::vector<PrefetchScheme> schemes = {
        PrefetchScheme::None,        PrefetchScheme::Sequential,
        PrefetchScheme::IDet,        PrefetchScheme::DDet,
        PrefetchScheme::Adaptive,    PrefetchScheme::MultiStride,
        PrefetchScheme::PtrChase,    PrefetchScheme::Perceptron,
    };
    return schemes;
}

namespace
{

/** FNV-1a over the machine's final memory image, in page order. */
std::uint64_t
imageDigest(const BackingStore &store)
{
    std::vector<std::pair<Addr, const std::uint8_t *>> pages;
    store.forEachPage([&](Addr base, const std::uint8_t *bytes, unsigned) {
        pages.emplace_back(base, bytes);
    });
    std::sort(pages.begin(), pages.end());
    const unsigned len = store.pageSize();
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    for (const auto &[base, bytes] : pages) {
        // All-zero pages are semantically absent (unmapped reads as
        // zero), so skip them: a scheme that merely materialized an
        // extra untouched page has not computed a different result.
        if (std::all_of(bytes, bytes + len,
                        [](std::uint8_t b) { return b == 0; }))
            continue;
        for (unsigned b = 0; b < 8; ++b)
            mix(static_cast<std::uint8_t>(base >> (8 * b)));
        for (unsigned i = 0; i < len; ++i)
            mix(bytes[i]);
    }
    return h;
}

MachineConfig
configFor(const ProgramSpec &spec, PrefetchScheme scheme)
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

} // namespace

SchemeRun
runOneScheme(const ProgramSpec &spec, PrefetchScheme scheme, Tick tick_limit)
try {
    PanicThrows panics_throw;
    MachineConfig cfg = configFor(spec, scheme);
    Machine m(cfg);
    FuzzWorkload wl(spec);
    AccessLog log;
    m.enableCommitRecording(log);
    wl.attach(m);

    Oracle oracle(cfg.pageSize);
    oracle.snapshotInitial(m.store());

    m.run(tick_limit);

    SchemeRun run;
    run.finished = m.allFinished();
    run.verified = run.finished && wl.verify(m);
    if (run.finished)
        m.checkCoherenceInvariants();
    run.imageDigest = imageDigest(m.store());
    if (audit::MachineAudit *a = m.auditor()) {
        audit::LedgerSnapshot ledger = a->exportLedger();
        run.oracle = oracle.check(log, m.store(), &ledger);
    } else {
        run.oracle = oracle.check(log, m.store(), nullptr);
    }
    return run;
} catch (const Panic &p) {
    SchemeRun run;
    run.panic = p.what();
    return run;
}

namespace
{

/**
 * Differential check of one program over all schemes: true when some
 * check failed. @p why and @p loads_checked (each may be null) get its
 * description and the loads the oracle checked in the first run that
 * did not panic (0 when every run panicked).
 */
bool
specDiverges(const ProgramSpec &spec, Tick tick_limit, std::string *why,
             std::uint64_t *loads_checked = nullptr)
{
    const auto &schemes = fuzzSchemes();
    std::vector<SchemeRun> runs;
    runs.reserve(schemes.size());
    for (PrefetchScheme s : schemes)
        runs.push_back(runOneScheme(spec, s, tick_limit));
    if (loads_checked) {
        auto ran = std::find_if(runs.begin(), runs.end(),
                [](const SchemeRun &r) { return r.panic.empty(); });
        *loads_checked = ran == runs.end() ? 0 : ran->oracle.loadsChecked;
    }

    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const char *name = toString(schemes[i]);
        const SchemeRun &r = runs[i];
        if (!r.panic.empty()) {
            if (why)
                *why = strfmt("scheme %s: panic: %s", name, r.panic.c_str());
            return true;
        }
        if (!r.finished) {
            if (why) {
                *why = strfmt("scheme %s did not quiesce within "
                              "%llu ticks", name,
                              (unsigned long long)tick_limit);
            }
            return true;
        }
        if (!r.oracle.ok()) {
            if (why) {
                *why = strfmt("scheme %s: %llu oracle divergences; "
                              "first: %s", name,
                              (unsigned long long)r.oracle.total,
                              r.oracle.divergences.front()
                                      .describe().c_str());
            }
            return true;
        }
        if (!r.verified) {
            if (why) {
                *why = strfmt("scheme %s: native verification failed",
                              name);
            }
            return true;
        }
        if (r.imageDigest != runs[0].imageDigest) {
            if (why) {
                *why = strfmt("final memory image of scheme %s "
                              "(%#llx) differs from baseline (%#llx)",
                              name,
                              (unsigned long long)r.imageDigest,
                              (unsigned long long)runs[0].imageDigest);
            }
            return true;
        }
    }
    return false;
}

SeedOutcome
checkSeed(std::uint64_t seed, const FuzzOptions &opts)
{
    SeedOutcome out;
    out.seed = seed;
    ProgramSpec spec = ProgramSpec::generate(seed);
    out.spec = spec.describe();

    std::string why;
    if (!specDiverges(spec, opts.tickLimit, &why, &out.loadsChecked)) {
        out.ok = true;
        return out;
    }
    out.ok = false;
    out.detail = why;
    if (opts.shrink) {
        auto pred = [&opts](const ProgramSpec &s) {
            return specDiverges(s, opts.tickLimit, nullptr);
        };
        ShrinkResult res = shrink(spec, pred, opts.shrinkBudget);
        out.minimized = res.spec.describe();
    }
    return out;
}

} // namespace

FuzzReport
runFuzz(const FuzzOptions &opts, std::ostream &out)
{
    std::vector<std::uint64_t> seeds = opts.seeds;
    if (seeds.empty()) {
        for (unsigned i = 0; i < opts.numSeeds; ++i)
            seeds.push_back(opts.seedStart + i);
    }
    // A run that checks nothing must not report success.
    if (seeds.empty())
        psim_fatal("fuzz: no seeds to check (numSeeds is 0 and no "
                   "explicit seed list was given)");

    FuzzReport report;
    report.outcomes.resize(seeds.size());
    SeedOutcome *slots = report.outcomes.data();
    const FuzzOptions *o = &opts;
    runGrid(seeds.size(), opts.jobs,
            [slots, &seeds, o](std::size_t i) {
                slots[i] = checkSeed(seeds[i], *o);
            });

    // All output happens after the grid, in seed order: byte-identical
    // at any --jobs count.
    std::ostringstream divergences;
    for (const SeedOutcome &s : report.outcomes) {
        ++report.seedsRun;
        report.loadsChecked += s.loadsChecked;
        if (s.ok)
            continue;
        ++report.failures;
        divergences << "seed " << s.seed << " DIVERGED: " << s.detail
                    << "\n  program:   " << s.spec << "\n";
        if (!s.minimized.empty())
            divergences << "  minimized: " << s.minimized << "\n";
        divergences << "  repro:     psim_cli fuzz --seed " << s.seed
                    << "\n";
    }
    out << divergences.str();
    out << "fuzz: " << report.seedsRun << " seeds x "
        << fuzzSchemes().size() << " schemes, " << report.loadsChecked
        << " loads checked, " << report.failures << " divergent\n";

    if (!report.ok() && !opts.reproPath.empty()) {
        apps::writeFile(opts.reproPath, [&divergences](std::ostream &os) {
            os << divergences.str();
        });
    }
    return report;
}

} // namespace psim::check
