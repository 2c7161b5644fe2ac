/**
 * @file
 * Report renderers: turn one executed spec (sim/spec.hh) into the
 * paper-layout table run_spec prints on stdout.
 *
 * Each renderer is keyed by the spec's "report" id and addresses cells
 * through Spec::cellIndex(), so the printed table is independent of
 * the flat cell order (pinned in tests/golden/<name>.stdout.txt).
 * A spec with report
 * "none" renders nothing -- the JSON results document is the output.
 */

#ifndef PSIM_BENCH_RENDER_HH
#define PSIM_BENCH_RENDER_HH

#include <string>

#include "sim/spec.hh"

namespace psim::bench
{

using Renderer = void (*)(const spec::Spec &, const spec::Results &);

/** The renderer for @p report, or nullptr when the id is unknown. */
Renderer findRenderer(const std::string &report);

/** Comma-separated list of the known report ids (for error messages). */
std::string knownReports();

} // namespace psim::bench

#endif // PSIM_BENCH_RENDER_HH
