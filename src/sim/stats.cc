#include "sim/stats.hh"

#include <iomanip>

#include "sim/json.hh"

namespace psim::stats
{

namespace
{

/** Renders a group's statistics as aligned "name value # desc" lines. */
class TextDump final : public Visitor
{
  public:
    TextDump(std::ostream &os, const std::string &group)
        : _os(os), _group(group)
    {
    }

    void
    scalar(std::string_view name, std::string_view desc,
           const Scalar &s) override
    {
        line(name, "", s.value(), desc);
    }

    void
    average(std::string_view name, std::string_view desc,
            const Average &a) override
    {
        line(name, ".mean", a.mean(), desc);
        line(name, ".count", a.count(), desc);
    }

  private:
    template <typename V>
    void
    line(std::string_view name, std::string_view suffix, V value,
         std::string_view desc)
    {
        std::string full = _group;
        full += '.';
        full += name;
        full += suffix;
        _os << std::left << std::setw(44) << full
            << std::right << std::setw(16) << value
            << "  # " << desc << "\n";
    }

    std::ostream &_os;
    const std::string &_group;
};

/** Appends one JSON object per visited statistic to an array. */
class JsonItems : public Visitor
{
  public:
    explicit JsonItems(std::string &out) : _out(out) {}

  protected:
    /** The separator, name and desc members every item opens with. */
    void
    open(std::string_view name, std::string_view desc)
    {
        _out += _sep;
        _sep = ",";
        _out += "{\"name\":";
        json::appendQuoted(_out, name);
        _out += ",\"desc\":";
        json::appendQuoted(_out, desc);
    }

    std::string &_out;

  private:
    const char *_sep = "";
};

/** The "scalars" array: every scalar, averages skipped. */
class JsonScalars final : public JsonItems
{
  public:
    using JsonItems::JsonItems;

    void
    scalar(std::string_view name, std::string_view desc,
           const Scalar &s) override
    {
        open(name, desc);
        _out += ",\"value\":";
        json::appendInteger(_out, s.value());
        _out += '}';
    }
};

/** The "averages" array: every average, scalars skipped. */
class JsonAverages final : public JsonItems
{
  public:
    using JsonItems::JsonItems;

    void
    average(std::string_view name, std::string_view desc,
            const Average &a) override
    {
        open(name, desc);
        _out += ",\"mean\":";
        json::appendNumber(_out, a.mean());
        _out += ",\"sum\":";
        json::appendNumber(_out, a.sum());
        _out += ",\"count\":";
        json::appendInteger(_out, a.count());
        _out += ",\"min\":";
        json::appendNumber(_out, a.min());
        _out += ",\"max\":";
        json::appendNumber(_out, a.max());
        _out += '}';
    }
};

} // namespace

void
Group::dump(std::ostream &os) const
{
    os << "---------- " << _name << " ----------\n";
    TextDump text(os, _name);
    visit(text);
}

void
Group::appendJson(std::string &out) const
{
    out += "{\"name\":";
    json::appendQuoted(out, _name);
    out += ",\"scalars\":[";
    JsonScalars scalars(out);
    visit(scalars);
    out += "],\"averages\":[";
    JsonAverages averages(out);
    visit(averages);
    // psim-stats-v1 names a histograms array; no statistic fills it.
    out += "],\"histograms\":[]}";
}

const Scalar *
Group::findScalar(const std::string &name) const
{
    class Finder final : public Visitor
    {
      public:
        explicit Finder(const std::string &n) : want(n) {}

        void
        scalar(std::string_view name, std::string_view,
               const Scalar &s) override
        {
            if (!found && name == want)
                found = &s;
        }

        const std::string &want;
        const Scalar *found = nullptr;
    } finder(name);
    visit(finder);
    return finder.found;
}

std::vector<const Group *>
Registry::groups() const
{
    std::vector<const Group *> view;
    view.reserve(_groups.size());
    for (const Group &g : _groups)
        view.push_back(&g);
    return view;
}

void
Registry::dump(std::ostream &os) const
{
    for (const Group &g : _groups)
        g.dump(os);
}

void
Registry::dumpJson(std::ostream &os, std::string_view extra) const
{
    std::string out;
    out += "{\"schema\":\"";
    out += kSchemaId;
    out += "\",\"groups\":[";
    const char *sep = "";
    for (const Group &g : _groups) {
        out += sep;
        g.appendJson(out);
        sep = ",";
        json::flushBuffer(os, out);
    }
    out += ']';
    out += extra;
    out += "}\n";
    json::flushBuffer(os, out, true);
}

} // namespace psim::stats
