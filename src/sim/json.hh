/**
 * @file
 * Minimal JSON document model: an ordered value tree, a strict
 * recursive-descent parser, and a canonical serializer.
 *
 * Built for the declarative experiment layer (sim/spec.hh): experiment
 * specs are parsed with this, and the canonical `psim-results-v1`
 * documents are emitted with it. The serializer is deterministic --
 * object members keep insertion order, numbers print with %.17g (exact
 * double round-trip), non-finite numbers become null -- so two runs
 * that compute the same values emit byte-identical documents.
 *
 * Standard library only; no third-party JSON dependency.
 */

#ifndef PSIM_SIM_JSON_HH
#define PSIM_SIM_JSON_HH

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace psim::json
{

class Value;

/** Ordered object members; duplicate keys are a parse error. */
using Members = std::vector<std::pair<std::string, Value>>;

class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() : _type(Type::Null) {}
    Value(bool b) : _type(Type::Bool), _bool(b) {}
    Value(double n) : _type(Type::Number), _num(n) {}
    Value(int n) : _type(Type::Number), _num(n) {}
    Value(unsigned n) : _type(Type::Number), _num(n) {}
    Value(long long n) : _type(Type::Number), _num(static_cast<double>(n)) {}
    Value(unsigned long long n)
        : _type(Type::Number), _num(static_cast<double>(n)) {}
    Value(const char *s) : _type(Type::String), _str(s) {}
    Value(std::string s) : _type(Type::String), _str(std::move(s)) {}

    static Value makeArray() { Value v; v._type = Type::Array; return v; }
    static Value makeObject() { Value v; v._type = Type::Object; return v; }

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** Human-readable type name ("object", "number", ...). */
    const char *typeName() const;

    // Typed accessors; fatal() on a type mismatch, with @p what naming
    // the offending location for the error message.
    bool asBool(const std::string &what) const;
    double asNumber(const std::string &what) const;
    const std::string &asString(const std::string &what) const;
    const std::vector<Value> &asArray(const std::string &what) const;
    const Members &asObject(const std::string &what) const;

    /**
     * @p what's value as a nonnegative integer; fatal when it is not a
     * number, not integral, negative, or above @p max.
     */
    unsigned long long asUnsigned(const std::string &what,
                                  unsigned long long max) const;

    /** Member lookup (objects only); nullptr when absent. */
    const Value *find(const std::string &key) const;

    // ---- Building (arrays and objects) ----
    Value &append(Value v);
    Value &set(const std::string &key, Value v);

    std::size_t size() const;

  private:
    Type _type;
    bool _bool = false;
    double _num = 0;
    std::string _str;
    std::vector<Value> _arr;
    Members _obj;
};

/**
 * Parse @p text as one JSON document. Strict: rejects trailing
 * garbage, duplicate object keys, and malformed literals. fatal() on
 * any error, naming @p what (a file name or document description).
 */
Value parse(const std::string &text, const std::string &what);

/**
 * Serialize deterministically: insertion-ordered members, no
 * whitespace, %.17g numbers, NaN/Inf as null.
 */
std::string serialize(const Value &v);

/**
 * The serializer's leaves, for writers that build a document in one
 * buffer without a Value tree (stats, sampler, chrome trace): append
 * @p s to @p out as a quoted, escaped string literal, and @p n as a
 * %.17g number (null when NaN/Inf; JSON has neither). Integral values
 * below 2^53 skip printf but print exactly what %.17g would.
 */
void appendQuoted(std::string &out, std::string_view s);
void appendNumber(std::string &out, double n);

/** Append integer @p v in decimal (what an ostream prints). */
template <typename T>
void
appendInteger(std::string &out, T v)
{
    static_assert(std::is_integral_v<T>);
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/**
 * Write @p out to @p os and empty it, once it holds 16 KiB or more,
 * or always when @p last. A writer that builds a document in @p out
 * calls it after each element, so a large document is never held
 * whole beside the stream's own copy.
 */
void flushBuffer(std::ostream &os, std::string &out, bool last = false);

/** appendNumber() into a fresh string. */
std::string number(double n);

/** Load and parse a JSON file; fatal() on I/O or parse errors. */
Value loadFile(const std::string &path);

} // namespace psim::json

#endif // PSIM_SIM_JSON_HH
