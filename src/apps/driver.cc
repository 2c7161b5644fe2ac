#include "apps/driver.hh"

#include <fstream>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/sampler.hh"
#include "trace/chrome_trace.hh"

namespace psim::apps
{

void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        psim_fatal("cannot write %s", path.c_str());
    emit(out);
    out.flush();
    if (!out)
        psim_fatal("write to %s failed", path.c_str());
}

Run
runWorkload(const std::string &workload_name, const MachineConfig &cfg,
            const RunOptions &opts)
{
    if (!opts.sampleCsv.empty() && opts.sampleInterval == 0)
        psim_fatal("--sample-csv needs --sample-interval");
    auto path = [&opts](const std::string &prefix, const char *ext) {
        return opts.cell.empty() ? prefix : prefix + opts.cell + ext;
    };

    Run run;
    run.machine = std::make_unique<Machine>(cfg);
    run.workload = makeWorkload(workload_name, opts.scale);
    if (opts.trace)
        run.machine->enableTracing(*opts.trace);
    if (opts.characterize)
        run.machine->enableCharacterizers();
    if (opts.sampleInterval > 0)
        run.machine->enableSampling(opts.sampleInterval);
    if (!opts.chromeTrace.empty())
        run.machine->enableChromeTrace(opts.chromeStart, opts.chromeEnd);
    run.workload->attach(*run.machine);
    run.machine->run();
    run.finished = run.machine->allFinished();
    if (run.finished) {
        run.verified = run.workload->verify(*run.machine);
        run.machine->checkCoherenceInvariants();
    }
    run.metrics = run.machine->metrics();

    if (!opts.statsJson.empty()) {
        writeFile(path(opts.statsJson, ".json"), [&run](std::ostream &os) {
            run.machine->dumpStatsJson(os);
        });
    }
    if (!opts.sampleCsv.empty()) {
        const stats::Sampler *s = run.machine->sampler();
        writeFile(path(opts.sampleCsv, ".csv"),
                  [s](std::ostream &os) { s->dumpCsv(os); });
    }
    if (!opts.chromeTrace.empty()) {
        const ChromeTracer *t = run.machine->chromeTracer();
        writeFile(path(opts.chromeTrace, ".json"),
                  [t](std::ostream &os) { t->write(os); });
    }
    return run;
}

bool
RunOptions::parseArg(int argc, char **argv, int *i)
{
    std::string arg = argv[*i];
    auto value = [&](const char *flag) {
        if (*i + 1 >= argc)
            psim_fatal("%s needs a value", flag);
        return std::string(argv[++*i]);
    };
    if (arg == "--stats-json") {
        statsJson = value("--stats-json");
        return true;
    }
    if (arg == "--sample-csv") {
        sampleCsv = value("--sample-csv");
        return true;
    }
    if (arg == "--chrome-trace") {
        chromeTrace = value("--chrome-trace");
        return true;
    }
    if (arg == "--sample-interval") {
        sampleInterval = parseTickFlag("--sample-interval",
                                       value("--sample-interval"));
        if (sampleInterval == 0)
            psim_fatal("--sample-interval must be a positive tick count");
        return true;
    }
    if (arg == "--chrome-window") {
        std::string v = value("--chrome-window");
        std::size_t colon = v.find(':');
        if (colon == std::string::npos)
            psim_fatal("--chrome-window wants START:END ticks");
        chromeStart = parseTickFlag("--chrome-window START",
                                    v.substr(0, colon));
        std::string end = v.substr(colon + 1);
        chromeEnd = end.empty()
                ? kTickNever
                : parseTickFlag("--chrome-window END", end);
        if (chromeEnd < chromeStart)
            psim_fatal("--chrome-window END precedes START");
        return true;
    }
    return false;
}

} // namespace psim::apps
