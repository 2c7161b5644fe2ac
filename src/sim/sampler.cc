#include "sim/sampler.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace psim::stats
{

Sampler::Sampler(Tick interval) : _interval(interval)
{
    psim_assert(interval > 0, "sample interval must be positive");
}

void
Sampler::addProbe(std::string name, std::function<double()> fn)
{
    psim_assert(_rows.empty(), "probes must register before sampling");
    _names.push_back(std::move(name));
    _probes.push_back(std::move(fn));
}

void
Sampler::sample(Tick now)
{
    Row row;
    row.tick = now;
    row.values.reserve(_probes.size());
    for (const auto &p : _probes)
        row.values.push_back(p());
    _rows.push_back(std::move(row));
}

void
Sampler::appendJson(std::string &out) const
{
    out += "{\"interval\":";
    json::appendInteger(out, _interval);
    out += ",\"probes\":[";
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (i)
            out += ',';
        json::appendQuoted(out, _names[i]);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        out += r ? ",[" : "[";
        json::appendInteger(out, _rows[r].tick);
        for (double v : _rows[r].values) {
            out += ',';
            json::appendNumber(out, v);
        }
        out += ']';
    }
    out += "]}";
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
