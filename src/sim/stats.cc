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
    auto line = [&os, this](std::string_view name, std::string_view suffix,
                            double value, std::string_view desc) {
        std::string full = _name;
        full += '.';
        full += name;
        full += suffix;
        os << std::left << std::setw(44) << full
           << std::right << std::setw(16) << value
           << "  # " << desc << "\n";
    };
    for (const auto &item : _scalars)
        line(item.name, "", item.stat->value(), item.desc);
    for (const auto &item : _averages) {
        line(item.name, ".mean", item.stat->mean(), item.desc);
        line(item.name, ".count", static_cast<double>(item.stat->count()),
             item.desc);
    }
    for (const auto &item : _histograms) {
        line(item.name, ".total", static_cast<double>(item.stat->total()),
             item.desc);
        for (const auto &[key, weight] : item.stat->buckets()) {
            line(item.name, "[" + std::to_string(key) + "]",
                 static_cast<double>(weight), item.desc);
        }
    }
}

void
Group::appendJson(std::string &out) const
{
    using json::appendInteger;
    using json::appendNumber;
    using json::appendQuoted;
    // The name and desc members every item opens with.
    auto open = [&out](std::string_view name, std::string_view desc) {
        out += "{\"name\":";
        appendQuoted(out, name);
        out += ",\"desc\":";
        appendQuoted(out, desc);
    };

    out += "{\"name\":";
    appendQuoted(out, _name);
    out += ",\"scalars\":[";
    const char *sep = "";
    for (const auto &item : _scalars) {
        out += sep;
        open(item.name, item.desc);
        out += ",\"value\":";
        appendNumber(out, item.stat->value());
        out += '}';
        sep = ",";
    }
    out += "],\"averages\":[";
    sep = "";
    for (const auto &item : _averages) {
        const Average &a = *item.stat;
        out += sep;
        open(item.name, item.desc);
        out += ",\"mean\":";
        appendNumber(out, a.mean());
        out += ",\"sum\":";
        appendNumber(out, a.sum());
        out += ",\"count\":";
        appendInteger(out, a.count());
        out += ",\"min\":";
        appendNumber(out, a.min());
        out += ",\"max\":";
        appendNumber(out, a.max());
        out += '}';
        sep = ",";
    }
    out += "],\"histograms\":[";
    sep = "";
    for (const auto &item : _histograms) {
        out += sep;
        open(item.name, item.desc);
        out += ",\"total\":";
        appendInteger(out, item.stat->total());
        out += ",\"buckets\":[";
        const char *bsep = "";
        for (const auto &[key, weight] : item.stat->buckets()) {
            out += bsep;
            out += "{\"key\":";
            appendInteger(out, key);
            out += ",\"count\":";
            appendInteger(out, weight);
            out += '}';
            bsep = ",";
        }
        out += "]}";
        sep = ",";
    }
    out += "]}";
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

void
Registry::dump(std::ostream &os) const
{
    for (const auto &g : _groups)
        g->dump(os);
}

void
Registry::dumpJson(std::ostream &os, std::string_view extra) const
{
    std::string out;
    out += "{\"schema\":\"";
    out += kSchemaId;
    out += "\",\"groups\":[";
    const char *sep = "";
    for (const auto &g : _groups) {
        out += sep;
        g->appendJson(out);
        sep = ",";
        json::flushBuffer(os, out);
    }
    out += ']';
    out += extra;
    out += "}\n";
    json::flushBuffer(os, out, true);
}

} // namespace psim::stats
