/**
 * @file
 * Spec runner: `run_spec --spec NAME|PATH [flags]` executes any
 * psim-spec-v1 experiment spec, prints its report on stdout, and, with
 * --out/--json PATH, writes the canonical psim-results-v1 document.
 * Without --out nothing is written, so a reduced run (--apps, --procs)
 * can never overwrite a pinned BENCH_*.json golden.
 *
 * A bare spec name resolves to $PSIM_SPEC_DIR/NAME.json when that is
 * set, else to the repository's specs/ directory baked in at configure
 * time (PSIM_SPEC_DIR compile definition).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "render.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/spec.hh"

using namespace psim;

namespace
{

struct Options
{
    std::string spec;              ///< --spec: name or path of the spec
    std::string out;               ///< empty: no results document
    std::vector<std::string> apps; ///< empty: the spec's own app axes
    spec::ExecOptions exec;
};

/**
 * Parse `--spec`, `--jobs N` (or `-jN`), `--json/--out PATH`,
 * `--apps a,b,c`, `--shards N`, `--procs N` and the shared
 * observability flags (--stats-json PREFIX, --sample-interval N,
 * --sample-csv PREFIX, --chrome-trace PREFIX, --chrome-window A:B).
 * Unknown arguments are fatal so typos do not silently serialize.
 */
Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) {
            if (i + 1 >= argc)
                psim_fatal("%s needs a value", flag);
            return std::string(argv[++i]);
        };
        if (opt.exec.obs.parseArg(argc, argv, &i)) {
            // consumed an observability flag
        } else if (arg == "--jobs" || arg == "-j") {
            opt.exec.jobs = parseUnsignedFlag("--jobs", value("--jobs"));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            opt.exec.jobs = parseUnsignedFlag("-jN", arg.substr(2));
        } else if (arg == "--json" || arg == "--out") {
            opt.out = value("--json");
        } else if (arg == "--spec") {
            opt.spec = value("--spec");
        } else if (arg == "--shards") {
            opt.exec.shards =
                    parseUnsignedFlag("--shards", value("--shards"));
        } else if (arg == "--procs") {
            opt.exec.procs = parseUnsignedFlag("--procs", value("--procs"));
        } else if (arg == "--apps") {
            std::string list = value("--apps");
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                std::size_t comma = list.find(',', pos);
                std::string name = list.substr(pos,
                        comma == std::string::npos ? comma : comma - pos);
                if (!name.empty())
                    opt.apps.push_back(name);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
            if (opt.apps.empty())
                psim_fatal("--apps needs a comma-separated list");
        } else {
            psim_fatal("unknown argument '%s' "
                       "(supported: --spec NAME|PATH, --jobs N, "
                       "--json/--out PATH, --apps a,b, "
                       "--shards N, --procs N, "
                       "--stats-json PREFIX, --sample-interval N, "
                       "--sample-csv PREFIX, --chrome-trace PREFIX, "
                       "--chrome-window A:B)",
                       arg.c_str());
        }
    }
    return opt;
}

/** A path (contains '/' or ends in .json) passes through verbatim. */
std::string
resolveSpecPath(const std::string &name_or_path)
{
    if (name_or_path.find('/') != std::string::npos)
        return name_or_path;
    if (name_or_path.size() > 5 &&
        name_or_path.compare(name_or_path.size() - 5, 5, ".json") == 0)
        return name_or_path;
    const char *dir = std::getenv("PSIM_SPEC_DIR");
#ifdef PSIM_SPEC_DIR
    if (!dir || !*dir)
        dir = PSIM_SPEC_DIR;
#endif
    if (!dir || !*dir)
        psim_fatal("cannot resolve spec '%s': set PSIM_SPEC_DIR or pass "
                   "a path", name_or_path.c_str());
    return std::string(dir) + "/" + name_or_path + ".json";
}

void
writeDocument(const std::string &path, const std::string &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        psim_fatal("cannot write %s", path.c_str());
    std::fputs(doc.c_str(), f);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.spec.empty())
        psim_fatal("--spec NAME|PATH is required (known reports: %s)",
                   bench::knownReports().c_str());

    spec::Spec sp = spec::loadSpec(resolveSpecPath(opt.spec));
    sp.overrideApps(opt.apps);

    bench::Renderer render = bench::findRenderer(sp.report);
    if (!render)
        psim_fatal("spec '%s': unknown report '%s' (known: %s)",
                   sp.name.c_str(), sp.report.c_str(),
                   bench::knownReports().c_str());

    spec::Results results = spec::runSpec(sp, opt.exec);
    render(sp, results);

    std::fprintf(stderr, "grid wall-clock: %.2fs with %u jobs\n",
                 results.wallSeconds, results.jobs);
    if (!opt.out.empty()) {
        writeDocument(opt.out, spec::resultsDocument(sp, opt.exec, results));
        std::fprintf(stderr, "results: %s\n", opt.out.c_str());
    }
    return 0;
}
