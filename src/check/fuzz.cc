#include "check/fuzz.hh"

#include <fstream>
#include <map>

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
    std::map<Addr, std::vector<std::uint8_t>> pages;
    store.forEachPage(
            [&](Addr base, const std::uint8_t *bytes, unsigned len) {
                pages.emplace(base,
                        std::vector<std::uint8_t>(bytes, bytes + len));
            });
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const auto &[base, bytes] : pages) {
        // All-zero pages are semantically absent (unmapped reads as
        // zero), so skip them: a scheme that merely materialized an
        // extra untouched page has not computed a different result.
        bool all_zero = true;
        for (std::uint8_t b : bytes) {
            if (b) {
                all_zero = false;
                break;
            }
        }
        if (all_zero)
            continue;
        mix(base);
        for (std::uint8_t b : bytes) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

MachineConfig
configFor(const ProgramSpec &spec, PrefetchScheme scheme,
          const TestHooks &hooks)
{
    MachineConfig cfg;
    cfg.numProcs = spec.threads;
    if (cfg.numProcs < 4)
        cfg.meshCols = cfg.numProcs;
    cfg.prefetch.scheme = scheme;
    cfg.prefetch.degree = spec.degree;
    cfg.seed = spec.seed;
    cfg.testHooks = hooks;
    return cfg;
}

} // namespace

SchemeRun
runOneScheme(const ProgramSpec &spec, PrefetchScheme scheme,
             const TestHooks &hooks, Tick tick_limit)
{
    MachineConfig cfg = configFor(spec, scheme, hooks);
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
    run.imageDigest = imageDigest(m.store());
    if (audit::MachineAudit *a = m.auditor()) {
        audit::LedgerSnapshot ledger = a->exportLedger();
        run.oracle = oracle.check(log, m.store(), &ledger);
    } else {
        run.oracle = oracle.check(log, m.store(), nullptr);
    }
    return run;
}

bool
specDiverges(const ProgramSpec &spec, const TestHooks &hooks,
             Tick tick_limit, std::string *why)
{
    const auto &schemes = fuzzSchemes();
    std::vector<SchemeRun> runs;
    runs.reserve(schemes.size());
    for (PrefetchScheme s : schemes)
        runs.push_back(runOneScheme(spec, s, hooks, tick_limit));

    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const char *name = toString(schemes[i]);
        const SchemeRun &r = runs[i];
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

namespace
{

SeedOutcome
checkSeed(std::uint64_t seed, const FuzzOptions &opts)
{
    SeedOutcome out;
    out.seed = seed;
    ProgramSpec spec = ProgramSpec::generate(seed);
    out.spec = spec.describe();

    // Count checked loads from one representative run (baseline).
    SchemeRun base = runOneScheme(spec, PrefetchScheme::None,
            opts.hooks, opts.tickLimit);
    out.loadsChecked = base.oracle.loadsChecked;

    std::string why;
    if (!specDiverges(spec, opts.hooks, opts.tickLimit, &why)) {
        out.ok = true;
        return out;
    }
    out.ok = false;
    out.detail = why;
    if (opts.shrink) {
        auto pred = [&opts](const ProgramSpec &s) {
            return specDiverges(s, opts.hooks, opts.tickLimit, nullptr);
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
    for (const SeedOutcome &s : report.outcomes) {
        ++report.seedsRun;
        report.loadsChecked += s.loadsChecked;
        if (s.ok)
            continue;
        ++report.failures;
        out << "seed " << s.seed << " DIVERGED: " << s.detail << "\n";
        out << "  program:   " << s.spec << "\n";
        if (!s.minimized.empty())
            out << "  minimized: " << s.minimized << "\n";
        out << "  repro:     psim_cli fuzz --seed " << s.seed << "\n";
    }
    out << "fuzz: " << report.seedsRun << " seeds x "
        << fuzzSchemes().size() << " schemes, " << report.loadsChecked
        << " loads checked, " << report.failures << " divergent\n";

    if (!report.ok() && !opts.reproPath.empty()) {
        std::ofstream repro(opts.reproPath, std::ios::trunc);
        if (repro) {
            for (const SeedOutcome &s : report.outcomes) {
                if (s.ok)
                    continue;
                repro << "seed " << s.seed << ": " << s.detail << "\n"
                      << "  program:   " << s.spec << "\n";
                if (!s.minimized.empty())
                    repro << "  minimized: " << s.minimized << "\n";
                repro << "  repro:     psim_cli fuzz --seed " << s.seed
                      << "\n";
            }
            repro.flush();
        } else {
            psim_warn("cannot write fuzz repro file '%s'",
                    opts.reproPath.c_str());
        }
    }
    return report;
}

} // namespace psim::check
