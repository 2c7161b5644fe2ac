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

#include <cstddef>
#include <string>
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
 * The serializer's leaves, for writers that stream a document without
 * building a Value tree: @p s as a quoted, escaped string literal, and
 * @p n as a %.17g number (null when NaN/Inf; JSON has neither).
 */
std::string quote(const std::string &s);
std::string number(double n);

/** Load and parse a JSON file; fatal() on I/O or parse errors. */
Value loadFile(const std::string &path);

} // namespace psim::json

#endif // PSIM_SIM_JSON_HH
