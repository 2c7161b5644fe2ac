/**
 * @file
 * Spec runner: `run_spec --spec NAME|PATH [flags]` executes any
 * psim-spec-v1 experiment spec, prints its report on stdout, and, with
 * --out PATH, writes the canonical psim-results-v1 document.
 * Without --out nothing is written, so a reduced run (--apps, --procs)
 * can never overwrite a pinned BENCH_*.json golden.
 *
 * A bare spec name resolves to NAME.json in the repository's specs/
 * directory, baked in at configure time (the PSIM_SPEC_DIR compile
 * definition); any other spec path passes through verbatim.
 */

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "apps/driver.hh"
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
 * Parse `--spec`, `--jobs N`, `--out PATH`,
 * `--apps a,b,c`, `--procs N` and the shared
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
        } else if (arg == "--jobs") {
            opt.exec.jobs = parseUnsignedFlag("--jobs", value("--jobs"));
        } else if (arg == "--out") {
            opt.out = value("--out");
        } else if (arg == "--spec") {
            opt.spec = value("--spec");
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
                       "--out PATH, --apps a,b, "
                       "--procs N, "
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
    return std::string(PSIM_SPEC_DIR) + "/" + name_or_path + ".json";
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

    if (!opt.out.empty()) {
        const std::string doc = spec::resultsDocument(sp, opt.exec, results);
        apps::writeFile(opt.out, [&doc](std::ostream &os) { os << doc; });
        std::fprintf(stderr, "results: %s\n", opt.out.c_str());
    }
    return 0;
}
