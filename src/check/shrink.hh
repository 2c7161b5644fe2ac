/**
 * @file
 * Greedy repro minimizer for failing fuzz programs.
 *
 * Given a ProgramSpec that fails (by whatever predicate the caller
 * supplies -- normally "some scheme still diverges from the oracle"),
 * shrink() repeatedly tries simplifying transformations and keeps each
 * one that still fails: disabling whole phases, halving iteration
 * counts, halving lanes, and halving the thread count. The result is
 * the smallest program the greedy descent can reach within its
 * predicate budget -- typically one phase and a handful of iterations,
 * which is what a human wants to stare at.
 *
 * Phases are disabled, never deleted, so the shared-memory layout of
 * the surviving phases is unchanged and the minimized spec replays the
 * failure at the original addresses.
 */

#ifndef PSIM_CHECK_SHRINK_HH
#define PSIM_CHECK_SHRINK_HH

#include <functional>

#include "check/fuzzgen.hh"

namespace psim::check
{

/** Does this spec still fail? (true = keep shrinking toward it) */
using FailPredicate = std::function<bool(const ProgramSpec &)>;

struct ShrinkResult
{
    ProgramSpec spec;          ///< smallest still-failing spec found
    unsigned attempts = 0;     ///< predicate evaluations spent
    unsigned improvements = 0; ///< accepted simplifications
};

/**
 * Minimize @p failing under @p stillFails, spending at most @p budget
 * predicate evaluations. @p failing must itself fail the predicate.
 */
ShrinkResult shrink(const ProgramSpec &failing,
                    const FailPredicate &stillFails, unsigned budget);

} // namespace psim::check

#endif // PSIM_CHECK_SHRINK_HH
