#include "sim/stats.hh"

#include <iomanip>

#include "sim/json.hh"

namespace psim::stats
{

void
Histogram::sample(std::int64_t key, std::uint64_t weight)
{
    _buckets[key] += weight;
    _total += weight;
}

std::uint64_t
Histogram::count(std::int64_t key) const
{
    auto it = _buckets.find(key);
    return it == _buckets.end() ? 0 : it->second;
}

std::int64_t
Histogram::dominantKey() const
{
    std::int64_t best_key = 0;
    std::uint64_t best = 0;
    for (const auto &[key, weight] : _buckets) {
        if (weight > best) {
            best = weight;
            best_key = key;
        }
    }
    return best_key;
}

double
Histogram::fraction(std::int64_t key) const
{
    if (_total == 0)
        return 0.0;
    return static_cast<double>(count(key)) / static_cast<double>(_total);
}

void
Group::dump(std::ostream &os) const
{
    os << "---------- " << _name << " ----------\n";
    auto line = [&os](const std::string &name, double value,
                      const std::string &desc) {
        os << std::left << std::setw(44) << name
           << std::right << std::setw(16) << value
           << "  # " << desc << "\n";
    };
    for (const auto &item : _scalars)
        line(_name + "." + item.name, item.stat->value(), item.desc);
    for (const auto &item : _averages) {
        line(_name + "." + item.name + ".mean", item.stat->mean(),
             item.desc);
        line(_name + "." + item.name + ".count",
             static_cast<double>(item.stat->count()), item.desc);
    }
    for (const auto &item : _histograms) {
        line(_name + "." + item.name + ".total",
             static_cast<double>(item.stat->total()), item.desc);
        for (const auto &[key, weight] : item.stat->buckets()) {
            line(_name + "." + item.name + "[" + std::to_string(key) + "]",
                 static_cast<double>(weight), item.desc);
        }
    }
}

void
Group::dumpJson(std::ostream &os) const
{
    os << "{\"name\":" << json::quote(_name) << ",\"scalars\":[";
    bool first = true;
    for (const auto &item : _scalars) {
        os << (first ? "" : ",") << "{\"name\":" << json::quote(item.name)
           << ",\"desc\":" << json::quote(item.desc)
           << ",\"value\":" << json::number(item.stat->value()) << "}";
        first = false;
    }
    os << "],\"averages\":[";
    first = true;
    for (const auto &item : _averages) {
        os << (first ? "" : ",") << "{\"name\":" << json::quote(item.name)
           << ",\"desc\":" << json::quote(item.desc)
           << ",\"mean\":" << json::number(item.stat->mean())
           << ",\"sum\":" << json::number(item.stat->sum())
           << ",\"count\":" << item.stat->count()
           << ",\"min\":" << json::number(item.stat->min())
           << ",\"max\":" << json::number(item.stat->max()) << "}";
        first = false;
    }
    os << "],\"histograms\":[";
    first = true;
    for (const auto &item : _histograms) {
        os << (first ? "" : ",") << "{\"name\":" << json::quote(item.name)
           << ",\"desc\":" << json::quote(item.desc)
           << ",\"total\":" << item.stat->total() << ",\"buckets\":[";
        bool bfirst = true;
        for (const auto &[key, weight] : item.stat->buckets()) {
            os << (bfirst ? "" : ",") << "{\"key\":" << key
               << ",\"count\":" << weight << "}";
            bfirst = false;
        }
        os << "]}";
        first = false;
    }
    os << "]}";
}

const Scalar *
Group::findScalar(const std::string &name) const
{
    for (const auto &item : _scalars) {
        if (item.name == name)
            return item.stat;
    }
    return nullptr;
}

Group &
Registry::addGroup(const std::string &name)
{
    _groups.push_back(std::make_unique<Group>(name));
    return *_groups.back();
}

const Group *
Registry::find(const std::string &name) const
{
    for (const auto &g : _groups) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

void
Registry::dump(std::ostream &os) const
{
    for (const auto &g : _groups)
        g->dump(os);
}

void
Registry::dumpJson(std::ostream &os, const std::string &extra) const
{
    os << "{\"schema\":\"" << kSchemaId << "\",\"groups\":[";
    bool first = true;
    for (const auto &g : _groups) {
        if (!first)
            os << ",";
        g->dumpJson(os);
        first = false;
    }
    os << "]" << extra << "}\n";
}

} // namespace psim::stats
