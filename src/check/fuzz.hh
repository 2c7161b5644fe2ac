/**
 * @file
 * The differential fuzzing driver.
 *
 * For every seed, generate one program (fuzzgen.hh) and run it on all
 * five of the paper's scheme configurations -- baseline (no
 * prefetching), sequential, I-detection stride, D-detection stride,
 * and adaptive sequential. Every run is checked four ways:
 *
 *  1. the machine must quiesce within the tick limit;
 *  2. the workload's native model must verify the final values;
 *  3. the SC oracle (oracle.hh) must accept the committed access log,
 *     the final image, the page rule, and the audit fate ledger;
 *  4. the final memory image digest must be identical across all
 *     schemes (the program is data-race-free and commutative by
 *     construction, so every scheme must compute the same result).
 *
 * Seeds fan out over runGrid's worker threads -- each seed's machines
 * are self-contained and single-threaded -- and results print in seed
 * order, so output is byte-identical at any --jobs count. On
 * divergence the driver prints the seed, the first divergences, and a
 * greedily minimized repro (shrink.hh), and can write the repro to a
 * file for CI artifact upload.
 */

#ifndef PSIM_CHECK_FUZZ_HH
#define PSIM_CHECK_FUZZ_HH

#include <ostream>
#include <string>
#include <vector>

#include "check/fuzzgen.hh"
#include "check/oracle.hh"
#include "sim/config.hh"

namespace psim::check
{

/** The scheme set every seed is cross-checked over. */
const std::vector<PrefetchScheme> &fuzzSchemes();

struct FuzzOptions
{
    /**
     * Explicit seed list; when empty, seedStart..seedStart+numSeeds.
     * runFuzz() is fatal when this leaves no seed to check.
     */
    std::vector<std::uint64_t> seeds;
    std::uint64_t seedStart = 1;
    unsigned numSeeds = 20;

    unsigned jobs = 1;
    bool shrink = true;
    unsigned shrinkBudget = 48;

    /** Quiesce deadline per run; exceeding it is itself a failure. */
    Tick tickLimit = 50'000'000;

    /** Fault injection for self-tests (inert by default). */
    TestHooks hooks{};

    /** When non-empty, failing-seed repro report is written here. */
    std::string reproPath;
};

/** Everything one (spec, scheme) run produced. */
struct SchemeRun
{
    bool finished = false;
    bool verified = false;
    std::uint64_t imageDigest = 0;
    OracleReport oracle;
};

struct SeedOutcome
{
    std::uint64_t seed = 0;
    bool ok = true;
    std::uint64_t loadsChecked = 0;
    std::string detail;    ///< failure description (empty when ok)
    std::string spec;      ///< describe() of the generated program
    std::string minimized; ///< describe() of the shrunk repro
};

struct FuzzReport
{
    std::uint64_t seedsRun = 0;
    std::uint64_t failures = 0;
    std::uint64_t loadsChecked = 0;
    std::vector<SeedOutcome> outcomes; ///< seed order
    bool ok() const { return failures == 0; }
};

/**
 * Run one program under one scheme with commit recording, the SC
 * oracle, and the native verifier. Exposed for tests (the page-rule
 * property test and the oracle mutant tests drive it directly).
 */
SchemeRun runOneScheme(const ProgramSpec &spec, PrefetchScheme scheme,
                       const TestHooks &hooks, Tick tick_limit);

/**
 * Differential check of one program over all schemes. Returns true
 * when some check failed; @p why (may be null) receives a description,
 * and @p loads_checked (may be null) the loads the oracle checked in
 * the baseline run, fuzzSchemes()[0].
 */
bool specDiverges(const ProgramSpec &spec, const TestHooks &hooks,
                  Tick tick_limit, std::string *why,
                  std::uint64_t *loads_checked = nullptr);

/** The full driver: fan seeds out, check, shrink failures, report. */
FuzzReport runFuzz(const FuzzOptions &opts, std::ostream &out);

} // namespace psim::check

#endif // PSIM_CHECK_FUZZ_HH
