/**
 * @file
 * Parallel experiment runner.
 *
 * Each simulation (one Machine) is strictly single-threaded and
 * deterministic, but the paper's evaluation re-runs the same machine
 * over an application × scheme grid whose cells are completely
 * independent. runGrid() runs those cells concurrently: worker threads
 * take cell indices from a shared atomic counter, every cell writes its
 * result into a caller-owned slot keyed by index, and the caller
 * formats output only after the grid completes — so printed tables are
 * byte-identical to a serial run no matter the job count.
 *
 * The job count comes from an explicit `--jobs N` flag, else the
 * hardware concurrency.
 */

#ifndef PSIM_SIM_PARALLEL_HH
#define PSIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace psim
{

/**
 * Resolve the job count for a grid run: @p requested if nonzero, else
 * std::thread::hardware_concurrency (at least 1).
 */
unsigned resolveJobs(unsigned requested = 0);

/**
 * Run @p fn(i) for every i in [0, n) on @p jobs threads (clamped to n;
 * jobs <= 1 runs serially on the calling thread). fn must only touch
 * state owned by its own index. Returns after all cells finished;
 * rethrows the first cell exception. With more than one thread, a
 * throwing cell does not stop the others.
 */
void runGrid(std::size_t n, unsigned jobs,
             const std::function<void(std::size_t)> &fn);

} // namespace psim

#endif // PSIM_SIM_PARALLEL_HH
