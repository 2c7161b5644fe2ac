/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Statistics are registered in named groups; a group can dump itself as
 * aligned "name value # description" lines. Scalars, averages and
 * histograms cover everything the paper's evaluation reports.
 *
 * A process-wide view is provided by Registry: every component of a
 * machine registers its group into the machine's registry, which can
 * render the whole collection as the classic text dump or as a stable,
 * machine-readable JSON document (schema id "psim-stats-v1", validated
 * by scripts/check_stats_schema.py).
 */

#ifndef PSIM_SIM_STATS_HH
#define PSIM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace psim::stats
{

/** A monotonically accumulating scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }
    void reset() { _value = 0; }

  private:
    double _value = 0;
};

/** Mean/min/max over a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        _count += 1;
        if (_count == 1 || v < _min)
            _min = v;
        if (_count == 1 || v > _max)
            _max = v;
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double min() const { return _min; }
    double max() const { return _max; }

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = 0;
    double _max = 0;
};

/** A histogram over integer keys (e.g. stride lengths in blocks). */
class Histogram
{
  public:
    void sample(std::int64_t key, std::uint64_t weight = 1);

    std::uint64_t total() const { return _total; }
    std::uint64_t count(std::int64_t key) const;

    /** Key with the largest weight; 0 if empty. */
    std::int64_t dominantKey() const;

    /** Fraction of all samples carried by @p key (0 if empty). */
    double fraction(std::int64_t key) const;

    const std::map<std::int64_t, std::uint64_t> &buckets() const
    {
        return _buckets;
    }

    void
    reset()
    {
        _buckets.clear();
        _total = 0;
    }

  private:
    std::map<std::int64_t, std::uint64_t> _buckets;
    std::uint64_t _total = 0;
};

/**
 * A named collection of statistics. Members register themselves with
 * addScalar()/addAverage()/addHistogram() pointers; dump() renders them.
 */
class Group
{
  public:
    explicit Group(std::string name) : _name(std::move(name)) {}

    void
    addScalar(const std::string &name, const Scalar *s,
              const std::string &desc)
    {
        _scalars.push_back({name, desc, s});
    }

    void
    addAverage(const std::string &name, const Average *a,
               const std::string &desc)
    {
        _averages.push_back({name, desc, a});
    }

    void
    addHistogram(const std::string &name, const Histogram *h,
                 const std::string &desc)
    {
        _histograms.push_back({name, desc, h});
    }

    const std::string &name() const { return _name; }

    /** Render every registered statistic to @p os. */
    void dump(std::ostream &os) const;

    /** Render this group as one JSON object (no trailing newline). */
    void dumpJson(std::ostream &os) const;

    /** Look up a registered scalar by name; nullptr when absent. */
    const Scalar *findScalar(const std::string &name) const;

  private:
    template <typename T>
    struct Item
    {
        std::string name;
        std::string desc;
        const T *stat;
    };

    std::string _name;
    std::vector<Item<Scalar>> _scalars;
    std::vector<Item<Average>> _averages;
    std::vector<Item<Histogram>> _histograms;
};

/**
 * Owns every statistics Group of one machine. Components call
 * addGroup() once at construction time and register their statistics
 * into the returned group; the registry renders the whole collection
 * in registration order, so dumps are deterministic.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Create (and own) a new group. The reference stays valid. */
    Group &addGroup(const std::string &name);

    const std::vector<std::unique_ptr<Group>> &groups() const
    {
        return _groups;
    }

    /** Classic aligned text dump of every group. */
    void dump(std::ostream &os) const;

    /**
     * Stable JSON document:
     *   {"schema":"psim-stats-v1","groups":[...]}
     * @p extra, when non-empty, is spliced in verbatim as additional
     * top-level members (must start with a comma) -- the machine uses
     * it to append the interval-sampler time series.
     */
    void dumpJson(std::ostream &os, const std::string &extra = "") const;

    /** The schema identifier embedded in every JSON document. */
    static constexpr const char *kSchemaId = "psim-stats-v1";

  private:
    std::vector<std::unique_ptr<Group>> _groups;
};

} // namespace psim::stats

#endif // PSIM_SIM_STATS_HH
