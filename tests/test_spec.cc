/**
 * @file
 * Declarative experiment specs (sim/spec.hh): strict parse-time
 * rejection, grid expansion, job-count independence of the canonical
 * results document, and a pinned golden-bytes snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/spec.hh"

using namespace psim;

namespace
{

spec::Spec
parseText(const std::string &text)
{
    return spec::parseSpec(json::parse(text, "inline spec"), "inline spec");
}

// Two fast cells (LU with and without sequential prefetching), with
// the miss characterizer on so the document exercises every section.
const char *kSmallSpec = R"json({
  "schema": "psim-spec-v1",
  "name": "spec_small",
  "report": "none",
  "run": {"characterize": true},
  "grid": [
    {"axes": [
      {"name": "app", "values": ["lu"]},
      {"name": "scheme", "values": ["none", "seq"]}
    ]}
  ]
})json";

std::string
smallDoc(unsigned jobs)
{
    spec::Spec sp = parseText(kSmallSpec);
    spec::ExecOptions exec;
    exec.jobs = jobs;
    return spec::resultsDocument(sp, exec, spec::runSpec(sp, exec));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(SpecParse, ExpandsRowMajorWithLastAxisFastest)
{
    spec::Spec sp = parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [
        {"name": "app", "values": ["lu", "ocean"]},
        {"name": "scheme", "values": ["none", "seq"]}
      ]}]
    })json");
    EXPECT_EQ(sp.cellCount(), 4u);
    EXPECT_EQ(sp.cellIndex(0, {0, 0}), 0u);
    EXPECT_EQ(sp.cellIndex(0, {0, 1}), 1u);
    EXPECT_EQ(sp.cellIndex(0, {1, 0}), 2u);
    EXPECT_EQ(sp.axis(0, "scheme").values[1].id, "seq");
}

TEST(SpecParse, GroupOffsetsAndAppOverride)
{
    spec::Spec sp = parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [
        {"axes": [{"name": "app", "values": ["lu", "ocean", "water"]}]},
        {"axes": [{"name": "app", "values": ["lu"]},
                  {"name": "scheme", "values": ["none", "seq"]}]}
      ]
    })json");
    EXPECT_EQ(sp.groupOffset(0), 0u);
    EXPECT_EQ(sp.groupOffset(1), 3u);
    EXPECT_EQ(sp.cellCount(), 5u);
    sp.overrideApps({"mp3d"});
    EXPECT_EQ(sp.cellCount(), 3u);
    EXPECT_EQ(sp.axis(0, "app").values[0].id, "mp3d");
}

TEST(SpecParse, AxisValueObjectsCarryIdLabelAndPatches)
{
    spec::Spec sp = parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [
        {"name": "app", "values": ["lu"]},
        {"name": "variant", "values": [
          {"id": "base"},
          {"id": "big", "label": "BIG",
           "config": {"slcSize": 262144}}
        ]}
      ]}]
    })json");
    const spec::Axis &axis = sp.axis(0, "variant");
    EXPECT_EQ(axis.values[0].label, "base");
    EXPECT_EQ(axis.values[1].label, "BIG");
    ASSERT_EQ(axis.values[1].config.size(), 1u);
    EXPECT_EQ(axis.values[1].config[0].first, "slcSize");
}

TEST(SpecParseDeathTest, RejectsUnknownKeysAndBadTypes)
{
    // Satellite guarantee: misspelled members anywhere in a spec are
    // parse-time fatal, never silently ignored.
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "frobnicate": 1,
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "unknown key 'frobnicate'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}],
                "colour": "red"}]
    })json"), "unknown key 'colour'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": 7,
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "expected string, got number");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v2", "name": "t", "report": "none",
      "grid": []
    })json"), "unsupported schema");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none"
    })json"), "missing required key 'grid'");
    // One form per setting: a group holds only axes, a value patches
    // only config, and the scale is an axis, not a run option.
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"config": {"slcSize": 262144},
                "axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "grid\\[0\\]: unknown key 'config'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"run": {"characterize": true},
                "axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "grid\\[0\\]: unknown key 'run'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": [
        {"value": "lu", "id": "lu", "run": {"characterize": true}}]}]}]
    })json"), "values\\[0\\]: unknown key 'run'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "run": {"scale": 2},
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "run: unknown key 'scale'");
}

TEST(SpecParseDeathTest, RejectsDegenerateGrids)
{
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": []
    })json"), "at least one group");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": []}]
    })json"), "axes must be nonempty");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "scheme", "values": ["none"]}]}]
    })json"), "has no application");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu", "lu"]}]}]
    })json"), "duplicate cell id");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app",
                          "values": [{"config": {"seed": 1}}]}]}]
    })json"), "needs an explicit");
    // A bare value is its own id, so it must be a string; any other
    // value is an object with an explicit id.
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu"]},
                         {"name": "prefetch.degree", "values": [2]}]}]
    })json"), "values\\[0\\]: expected string, got number");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu"]},
                         {"name": "prefetch.degree",
                          "values": [{"value": 2}]}]}]
    })json"), "needs an explicit");
}

TEST(SpecParseDeathTest, RejectsBadConfigAndRunValues)
{
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "config": {"blokSize": 64},
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "unknown machine-config key 'blokSize'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu"]},
                         {"name": "scheme", "values": ["warp9"]}]}]
    })json"), "unknown prefetch scheme 'warp9'");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "grid": [{"axes": [{"name": "app", "values": ["lu"]},
                         {"name": "scale",
                          "values": [{"value": 0, "id": "s0"}]}]}]
    })json"), "scale must be >= 1");
    EXPECT_DEATH(parseText(R"json({
      "schema": "psim-spec-v1", "name": "t", "report": "none",
      "config": {"sequentialConsistency": 3},
      "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
    })json"), "expected boolean, got number");
    // Fixed timings and table sizes are constants in src/sim/config.hh,
    // and each server workload picks its own request count.
    for (const std::string key :
         {"busCycle", "prefetch.rptEntries", "server.requests"}) {
        EXPECT_DEATH(parseText(R"json({
          "schema": "psim-spec-v1", "name": "t", "report": "none",
          "config": {")json" + key + R"json(": 1},
          "grid": [{"axes": [{"name": "app", "values": ["lu"]}]}]
        })json"), "unknown machine-config key '" + key + "'");
    }
}

TEST(SpecParseDeathTest, LoadSpecRequiresMatchingFileName)
{
    std::string path = testing::TempDir() + "/not_spec_small.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(kSmallSpec, f);
    std::fclose(f);
    EXPECT_DEATH(spec::loadSpec(path), "does not match the file name");
}

TEST(SpecConfig, ApplyConfigKeySetsFields)
{
    MachineConfig cfg;
    spec::applyConfigKey(cfg, "blockSize", json::Value(128), "t");
    spec::applyConfigKey(cfg, "prefetch.degree", json::Value(4), "t");
    spec::applyConfigKey(cfg, "sequentialConsistency", json::Value(true),
                         "t");
    spec::applyConfigKey(cfg, "scheme", json::Value("seq"), "t");
    EXPECT_EQ(cfg.blockSize, 128u);
    EXPECT_EQ(cfg.prefetch.degree, 4u);
    EXPECT_TRUE(cfg.sequentialConsistency);
    EXPECT_EQ(cfg.prefetch.scheme, PrefetchScheme::Sequential);
}

TEST(SpecRun, ResultsAreIndependentOfJobCount)
{
    // The collect-then-print runGrid contract, end to end: the
    // canonical document is byte-identical at any thread count.
    EXPECT_EQ(smallDoc(1), smallDoc(8));
}

TEST(SpecRun, GoldenBytesMatchPinnedSnapshot)
{
    // The document for the small spec, byte for byte. If this
    // fails after an intentional simulator change, repin:
    //   cp build/tests/spec_small_actual.json tests/golden/spec_small.json
    std::string golden = slurp(PSIM_TEST_GOLDEN_DIR "/spec_small.json");
    std::string actual = smallDoc(2);
    if (actual != golden) {
        std::FILE *f = std::fopen("spec_small_actual.json", "w");
        if (f) {
            std::fputs(actual.c_str(), f);
            std::fclose(f);
        }
        FAIL() << "document drifted from tests/golden/spec_small.json "
                  "(actual bytes written to spec_small_actual.json; "
                  "inspect with scripts/diff_results.py, repin only if "
                  "the change is intentional)";
    }
}
