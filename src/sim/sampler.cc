#include "sim/sampler.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace psim::stats
{

Sampler::Sampler(EventQueue &eq, Tick interval)
    : _eq(eq), _interval(interval)
{
    psim_assert(interval > 0, "sample interval must be positive");
}

void
Sampler::addProbe(std::string name, std::function<double()> fn)
{
    psim_assert(!_started, "probes must register before start()");
    _names.push_back(std::move(name));
    _probes.push_back(std::move(fn));
}

void
Sampler::start()
{
    psim_assert(!_started, "sampler already started");
    _started = true;
    _eq.scheduleIn(_interval, [this] { tick(); });
}

void
Sampler::tick()
{
    Row row;
    row.tick = _eq.now();
    row.values.reserve(_probes.size());
    for (const auto &p : _probes)
        row.values.push_back(p());
    _rows.push_back(std::move(row));

    // The fired event is already reclaimed, so empty() reflects only
    // the simulation's own events: once none remain the run is over and
    // rescheduling would only spin the clock forward.
    if (!_eq.empty())
        _eq.scheduleIn(_interval, [this] { tick(); });
}

void
Sampler::dumpJson(std::ostream &os) const
{
    os << "{\"interval\":" << _interval << ",\"probes\":[";
    for (std::size_t i = 0; i < _names.size(); ++i)
        os << (i ? "," : "") << json::quote(_names[i]);
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        os << (r ? "," : "") << "[" << _rows[r].tick;
        for (double v : _rows[r].values)
            os << "," << json::number(v);
        os << "]";
    }
    os << "]}";
}

void
Sampler::dumpCsv(std::ostream &os) const
{
    os << "tick";
    for (const auto &n : _names)
        os << "," << n;
    os << "\n";
    for (const auto &row : _rows) {
        os << row.tick;
        for (double v : row.values)
            os << "," << json::number(v);
        os << "\n";
    }
}

} // namespace psim::stats
