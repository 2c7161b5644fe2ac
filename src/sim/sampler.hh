/**
 * @file
 * Interval sampler: a periodic, read-only snapshot of selected
 * statistics (read misses, prefetches issued/useful, write buffer
 * occupancies, network flits, ...) so the *phase behaviour* of a
 * workload becomes visible, not just its end-of-run aggregates.
 *
 * The sampler is pure observation: it never mutates simulated state and
 * never changes the relative order of other events, so a run with
 * sampling enabled produces byte-identical aggregate statistics to one
 * without (asserted by tests/test_stats_export.cc).
 *
 * The machine drives it with a self-renewing SamplerTick event, which
 * stops rescheduling itself as soon as no other event is pending, so
 * it never keeps the queue alive artificially.
 */

#ifndef PSIM_SIM_SAMPLER_HH
#define PSIM_SIM_SAMPLER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace psim::stats
{

class Sampler
{
  public:
    /** @param interval ticks between snapshots (must be > 0) */
    explicit Sampler(Tick interval);

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Register a named probe; call before the first snapshot. */
    void addProbe(std::string name, std::function<double()> fn);

    /** Ticks between snapshots. */
    Tick interval() const { return _interval; }

    /** Record one row of every probe's value at tick @p now. */
    void sample(Tick now);

    const std::vector<std::string> &probeNames() const { return _names; }

    /** One row per snapshot: [tick, probe values...]. */
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    const std::vector<Row> &rows() const { return _rows; }

    /**
     * JSON fragment for the stats document's "samples" member:
     *   {"interval":N,"probes":[...],"rows":[[tick,v0,v1,...],...]}
     */
    void dumpJson(std::ostream &os) const;

    /** CSV time series: header "tick,probe0,..." then one row per sample. */
    void dumpCsv(std::ostream &os) const;

  private:
    Tick _interval;
    std::vector<std::string> _names;
    std::vector<std::function<double()>> _probes;
    std::vector<Row> _rows;
};

} // namespace psim::stats

#endif // PSIM_SIM_SAMPLER_HH
