/**
 * @file
 * Tests for the machine-readable observability layer: the registry's
 * JSON stats export, the interval sampler and the chrome-trace
 * exporter — including the load-bearing invariant that observability
 * is read-only (enabling it never changes simulated behaviour).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "apps/driver.hh"
#include "sim/json.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"
#include "trace/chrome_trace.hh"

using namespace psim;

namespace
{

MachineConfig
smallConfig(PrefetchScheme scheme = PrefetchScheme::Sequential)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.prefetch.scheme = scheme;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Registry JSON rendering
// ---------------------------------------------------------------------

TEST(StatsJson, RegistryDocumentShape)
{
    stats::Registry registry;
    stats::Scalar a, b;
    a = 3;
    b = 4.5;
    stats::Group &g = registry.addGroup("unit.grp");
    g.addScalar("alpha", &a, "first");
    g.addScalar("beta", &b, "second");

    std::ostringstream os;
    registry.dumpJson(os);
    EXPECT_EQ(os.str(),
            "{\"schema\":\"psim-stats-v1\",\"groups\":["
            "{\"name\":\"unit.grp\",\"scalars\":["
            "{\"name\":\"alpha\",\"desc\":\"first\",\"value\":3},"
            "{\"name\":\"beta\",\"desc\":\"second\",\"value\":4.5}"
            "],\"averages\":[],\"histograms\":[]}]}\n");
}

TEST(StatsJson, ExtraMembersAreSpliced)
{
    stats::Registry registry;
    registry.addGroup("g");
    std::ostringstream os;
    registry.dumpJson(os, ",\"samples\":{\"interval\":5}");
    EXPECT_NE(os.str().find("\"samples\":{\"interval\":5}"),
              std::string::npos);
}

// The JSON document and the classic text dump are two renderings of
// the same registry: every scalar in the text dump must appear in the
// JSON with the same value.
TEST(StatsJson, MatchesTextDumpForARealRun)
{
    apps::Run run = apps::runWorkload("lu", smallConfig());
    ASSERT_TRUE(run.finished);

    std::ostringstream json;
    run.machine->dumpStatsJson(json);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"psim-stats-v1\""),
              std::string::npos);

    std::size_t groups = 0, checked = 0;
    for (const auto &g : run.machine->registry().groups()) {
        ++groups;
        EXPECT_NE(doc.find("\"name\":\"" + g->name() + "\""),
                  std::string::npos) << g->name();
        for (const char *stat :
             {"demandReads", "demandReadMisses", "pfIssued"}) {
            const stats::Scalar *s = g->findScalar(stat);
            if (!s)
                continue;
            std::string entry = "{\"name\":\"" + std::string(stat) +
                                "\",";
            std::size_t pos = doc.find(entry);
            ASSERT_NE(pos, std::string::npos) << g->name() << "." << stat;
            std::string value = "\"value\":" +
                                json::number(s->value());
            EXPECT_NE(doc.find(value, pos), std::string::npos)
                    << g->name() << "." << stat << " = " << s->value();
            ++checked;
        }
    }
    // 4 nodes x (slc + pf groups at least) plus mesh.
    EXPECT_GE(groups, 9u);
    EXPECT_GE(checked, 4u);
}

// ---------------------------------------------------------------------
// Interval sampler
// ---------------------------------------------------------------------

TEST(Sampler, SnapshotsAtTheConfiguredInterval)
{
    apps::RunOptions opts;
    opts.sampleInterval = 1000;
    apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
    ASSERT_TRUE(run.finished);

    const stats::Sampler *s = run.machine->sampler();
    ASSERT_NE(s, nullptr);
    ASSERT_FALSE(s->rows().empty());
    Tick expect = 1000;
    for (const auto &row : s->rows()) {
        EXPECT_EQ(row.tick, expect);
        EXPECT_EQ(row.values.size(), s->probeNames().size());
        expect += 1000;
    }
    // Samples cover the whole run (the last snapshot falls within one
    // interval of the end).
    EXPECT_GE(s->rows().back().tick + 1000,
              run.metrics.execTicks);

    // Counter probes are monotonic over time.
    std::size_t miss_col = 0;
    const auto &names = s->probeNames();
    while (miss_col < names.size() && names[miss_col] != "node0.readMisses")
        ++miss_col;
    ASSERT_LT(miss_col, names.size());
    double prev = 0;
    for (const auto &row : s->rows()) {
        EXPECT_GE(row.values[miss_col], prev);
        prev = row.values[miss_col];
    }
}

TEST(Sampler, CsvAndJsonRenderTheSameSeries)
{
    apps::RunOptions opts;
    opts.sampleInterval = 2000;
    apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
    const stats::Sampler *s = run.machine->sampler();
    ASSERT_NE(s, nullptr);

    std::ostringstream csv;
    s->dumpCsv(csv);
    std::string header = csv.str().substr(0, csv.str().find('\n'));
    EXPECT_EQ(header.rfind("tick,", 0), 0u);
    // One header line plus one line per row.
    std::size_t lines = 0;
    for (char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 1 + s->rows().size());

    std::ostringstream json;
    s->dumpJson(json);
    EXPECT_NE(json.str().find("\"interval\":2000"), std::string::npos);
    EXPECT_NE(json.str().find("\"rows\":["), std::string::npos);

    // The machine splices the series into the stats document.
    std::ostringstream doc;
    run.machine->dumpStatsJson(doc);
    EXPECT_NE(doc.str().find("\"samples\":{\"interval\":2000"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The read-only invariant
// ---------------------------------------------------------------------

// Enabling the sampler and the chrome tracer must not perturb the
// simulation: the aggregate statistics dump is byte-identical.
TEST(Observability, DoesNotChangeSimulatedBehavior)
{
    std::string plain, observed;
    RunMetrics plain_mx, observed_mx;
    {
        apps::Run run = apps::runWorkload("lu", smallConfig());
        ASSERT_TRUE(run.finished && run.verified);
        std::ostringstream os;
        run.machine->dumpStats(os);
        plain = os.str();
        plain_mx = run.metrics;
    }
    {
        apps::RunOptions opts;
        opts.sampleInterval = 500;
        apps::Run run = apps::runWorkload("lu", smallConfig(), opts);
        ASSERT_TRUE(run.finished && run.verified);
        run.machine->metrics();
        std::ostringstream os;
        run.machine->dumpStats(os);
        observed = os.str();
        observed_mx = run.metrics;
    }
    EXPECT_EQ(plain, observed);
    EXPECT_EQ(plain_mx.execTicks, observed_mx.execTicks);
    EXPECT_DOUBLE_EQ(plain_mx.readMisses, observed_mx.readMisses);
    EXPECT_DOUBLE_EQ(plain_mx.flits, observed_mx.flits);
}

TEST(Observability, ChromeTraceIsReadOnlyToo)
{
    RunMetrics plain_mx;
    {
        apps::Run run = apps::runWorkload("lu", smallConfig());
        plain_mx = run.metrics;
    }
    apps::Run run;
    {
        // The machine is driven directly to keep the test free of
        // filesystem output.
        run.machine = std::make_unique<Machine>(smallConfig());
        run.workload = apps::makeWorkload("lu", 1);
        run.machine->enableChromeTrace();
        run.workload->attach(*run.machine);
        run.machine->run();
        ASSERT_TRUE(run.machine->allFinished());
        run.metrics = run.machine->metrics();
    }
    EXPECT_EQ(plain_mx.execTicks, run.metrics.execTicks);
    EXPECT_DOUBLE_EQ(plain_mx.readMisses, run.metrics.readMisses);
    EXPECT_DOUBLE_EQ(plain_mx.pfIssued, run.metrics.pfIssued);

    const ChromeTracer *t = run.machine->chromeTracer();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->eventCount(), 0u);

    std::ostringstream os;
    t->write(os);
    const std::string doc = os.str();
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
                        0), 0u);
    EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
    // Demand misses, prefetch lifecycles and mesh transits all appear.
    EXPECT_NE(doc.find("\"cat\":\"demand\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"prefetch\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"prefetch-fate\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"mesh\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":1000"), std::string::npos);
}

TEST(Observability, ChromeWindowRestrictsRecording)
{
    auto runWindowed = [](Tick start, Tick end) {
        auto machine = std::make_unique<Machine>(smallConfig());
        auto wl = apps::makeWorkload("lu", 1);
        machine->enableChromeTrace(start, end);
        wl->attach(*machine);
        machine->run();
        return machine->chromeTracer()->eventCount();
    };
    std::size_t full = runWindowed(0, kTickNever);
    std::size_t windowed = runWindowed(1000, 2000);
    EXPECT_GT(full, windowed);
    EXPECT_GT(windowed, 0u);
}

// ---------------------------------------------------------------------
// Option plumbing
// ---------------------------------------------------------------------

TEST(RunOptions, ParsesFlagsAndDerivesPerCellPaths)
{
    const std::string dir = ::testing::TempDir();
    const std::string stats = dir + "/obs-stats-", csv = dir + "/obs-csv-",
                      ct = dir + "/obs-ct-";
    const char *argv[] = {"prog", "--stats-json", stats.c_str(),
                          "--sample-interval", "250",
                          "--sample-csv", csv.c_str(),
                          "--chrome-trace", ct.c_str(),
                          "--chrome-window", "100:900"};
    int argc = 11;
    apps::RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        EXPECT_TRUE(opts.parseArg(argc, const_cast<char **>(argv), &i));
    }
    EXPECT_EQ(opts.sampleInterval, 250u);
    EXPECT_EQ(opts.chromeStart, 100u);
    EXPECT_EQ(opts.chromeEnd, 900u);

    auto written = [](const std::vector<std::string> &paths) {
        for (const std::string &p : paths) {
            if (!std::ifstream(p).good())
                return false;
            std::remove(p.c_str());
        }
        return true;
    };
    // A grid cell writes "<prefix><cell>.json" / ".csv"...
    opts.cell = "lu-seq";
    EXPECT_TRUE(apps::runWorkload("lu", smallConfig(), opts).verified);
    EXPECT_TRUE(written({stats + "lu-seq.json", csv + "lu-seq.csv",
                         ct + "lu-seq.json"}));
    // ...and a single run (no cell) uses each path verbatim.
    opts.cell.clear();
    EXPECT_TRUE(apps::runWorkload("lu", smallConfig(), opts).verified);
    EXPECT_TRUE(written({stats, csv, ct}));

    // Non-observability arguments are left alone.
    const char *other[] = {"prog", "--jobs", "4"};
    int oi = 1;
    EXPECT_FALSE(opts.parseArg(3, const_cast<char **>(other), &oi));
    EXPECT_EQ(oi, 1);
}

TEST(WriteFileDeathTest, AFailedWriteIsFatal)
{
    // Every output file, run_spec's results document included, goes
    // through writeFile(): a full disk must not pass as written.
    EXPECT_EXIT(apps::writeFile("/dev/full",
                                [](std::ostream &os) { os << "{}"; }),
                ::testing::ExitedWithCode(1), "write to /dev/full failed");
}
