/**
 * @file
 * The differential fuzzing driver.
 *
 * For every seed, generate one program (fuzzgen.hh) and run it under
 * all eight schemes of fuzzSchemes(): baseline (no prefetching),
 * sequential, I-detection stride, D-detection stride, adaptive
 * sequential, multi-stride, pointer chase and the perceptron filter.
 * Every run is checked four ways:
 *
 *  1. the machine must quiesce within the tick limit, without a panic
 *     and with the coherence invariants (SWMR) holding at quiesce;
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

namespace psim
{
/** bench/perf only; ROADMAP item 1 deletes this. */
struct TestHooks
{
};
} // namespace psim

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
    static constexpr std::uint64_t seedStart = 1;
    unsigned numSeeds = 20;

    unsigned jobs = 1;
    bool shrink = true;
    /** Predicate evaluations the shrinker may spend per failing seed. */
    static constexpr unsigned shrinkBudget = 48;

    /** Quiesce deadline per run; exceeding it is itself a failure. */
    static constexpr Tick tickLimit = 50'000'000;

    /**
     * When non-empty and a seed diverged, the divergence report (the
     * text printed before the summary line) is written here through
     * apps::writeFile: a file that cannot be written is fatal.
     */
    std::string reproPath;
};

/** Everything one (spec, scheme) run produced. */
struct SchemeRun
{
    bool finished = false;
    bool verified = false;
    /** Panic::what() of a run that panicked (empty otherwise). */
    std::string panic;
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
 * oracle, the native verifier and, once it finishes, the machine's
 * coherence invariants. A panic anywhere in the run is caught and
 * returned in SchemeRun::panic. Exposed for tests (the page-rule
 * property test drives it directly).
 */
SchemeRun runOneScheme(const ProgramSpec &spec, PrefetchScheme scheme,
                       Tick tick_limit);

/** bench/perf only; ROADMAP item 1 deletes this. */
inline SchemeRun
runOneScheme(const ProgramSpec &spec, PrefetchScheme scheme,
             const TestHooks &, Tick tick_limit)
{
    return runOneScheme(spec, scheme, tick_limit);
}

/** The full driver: fan seeds out, check, shrink failures, report. */
FuzzReport runFuzz(const FuzzOptions &opts, std::ostream &out);

} // namespace psim::check

#endif // PSIM_CHECK_FUZZ_HH
