/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Statistics are plain members of the components that count them: a
 * Scalar is an exact 64-bit count and an Average a mean/min/max over
 * samples. A component names its statistics in
 * `visitStats(stats::Visitor &) const`, handing each to the visitor in
 * a fixed order; the text dump, the JSON writer and Group::findScalar()
 * are the visitors.
 *
 * A machine's Registry holds one Group per component: a name, the
 * component and the function that visits it. The registry renders the
 * whole collection as the classic text dump or as a stable,
 * machine-readable JSON document (schema id "psim-stats-v1", validated
 * by scripts/check_stats_schema.py).
 */

#ifndef PSIM_SIM_STATS_HH
#define PSIM_SIM_STATS_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psim::stats
{

/** A count: an exact, monotonically accumulating integer. */
class Scalar
{
  public:
    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(std::uint64_t v) { _value += v; return *this; }
    Scalar &operator=(std::uint64_t v) { _value = v; return *this; }

    // A count takes no fraction: passing a floating-point value does
    // not compile.
    template <std::floating_point F> Scalar &operator+=(F) = delete;
    template <std::floating_point F> Scalar &operator=(F) = delete;

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
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

/**
 * What a component's visitStats() hands each of its statistics to,
 * with the statistic's name and description. Both calls ignore the
 * statistic unless a visitor overrides them.
 */
class Visitor
{
  public:
    virtual void scalar(std::string_view, std::string_view, const Scalar &)
    {
    }

    virtual void average(std::string_view, std::string_view,
                         const Average &)
    {
    }

  protected:
    ~Visitor() = default;
};

/**
 * One named group of statistics: a component and the function that
 * calls its visitStats(). The component must outlive the group.
 */
class Group
{
  public:
    template <typename T>
    Group(std::string name, const T &obj)
        : _name(std::move(name)), _obj(&obj),
          _visit([](const void *o, Visitor &v) {
              static_cast<const T *>(o)->visitStats(v);
          })
    {
    }

    const std::string &name() const { return _name; }

    /** Hand every statistic of the group to @p v, in visit order. */
    void visit(Visitor &v) const { _visit(_obj, v); }

    /** Render every statistic to @p os as "name value # desc" lines. */
    void dump(std::ostream &os) const;

    /** Append this group as one JSON object to @p out. */
    void appendJson(std::string &out) const;

    /** Look up a scalar by name; nullptr when absent. */
    const Scalar *findScalar(const std::string &name) const;

  private:
    std::string _name;
    const void *_obj;
    void (*_visit)(const void *, Visitor &);
};

/**
 * Every statistics Group of one machine, held by value in the order
 * they were added, so dumps are deterministic.
 */
class Registry
{
  public:
    void reserve(std::size_t groups) { _groups.reserve(groups); }

    /** Add the group @p name for component @p obj. */
    template <typename T>
    void
    add(std::string name, const T &obj)
    {
        _groups.emplace_back(std::move(name), obj);
    }

    /**
     * A pointer to each group, built on each call for bench/perf's
     * loop over `*group`; it goes once bench/perf walks the groups by
     * value (ROADMAP item 1).
     */
    std::vector<const Group *> groups() const;

    /** Classic aligned text dump of every group. */
    void dump(std::ostream &os) const;

    /**
     * Stable JSON document:
     *   {"schema":"psim-stats-v1","groups":[...]}
     * @p extra, when non-empty, is spliced in verbatim as additional
     * top-level members (must start with a comma) -- the machine uses
     * it to append the interval-sampler time series. The document is
     * built in one buffer, written out every 16 KiB.
     */
    void dumpJson(std::ostream &os, std::string_view extra = {}) const;

    /** The schema identifier embedded in every JSON document. */
    static constexpr const char *kSchemaId = "psim-stats-v1";

  private:
    std::vector<Group> _groups;
};

} // namespace psim::stats

#endif // PSIM_SIM_STATS_HH
