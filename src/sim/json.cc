#include "sim/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace psim::json
{

const char *
Value::typeName() const
{
    switch (_type) {
      case Type::Null: return "null";
      case Type::Bool: return "boolean";
      case Type::Number: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "?";
}

bool
Value::asBool(const std::string &what) const
{
    if (_type != Type::Bool)
        psim_fatal("%s: expected boolean, got %s", what.c_str(), typeName());
    return _bool;
}

double
Value::asNumber(const std::string &what) const
{
    if (_type != Type::Number)
        psim_fatal("%s: expected number, got %s", what.c_str(), typeName());
    return _num;
}

const std::string &
Value::asString(const std::string &what) const
{
    if (_type != Type::String)
        psim_fatal("%s: expected string, got %s", what.c_str(), typeName());
    return _str;
}

const std::vector<Value> &
Value::asArray(const std::string &what) const
{
    if (_type != Type::Array)
        psim_fatal("%s: expected array, got %s", what.c_str(), typeName());
    return _arr;
}

const Members &
Value::asObject(const std::string &what) const
{
    if (_type != Type::Object)
        psim_fatal("%s: expected object, got %s", what.c_str(), typeName());
    return _obj;
}

unsigned long long
Value::asUnsigned(const std::string &what, unsigned long long max) const
{
    double n = asNumber(what);
    if (!(n >= 0) || n != std::floor(n))
        psim_fatal("%s: expected a nonnegative integer, got %g",
                   what.c_str(), n);
    if (n > static_cast<double>(max))
        psim_fatal("%s: %g exceeds the maximum %llu", what.c_str(), n, max);
    return static_cast<unsigned long long>(n);
}

const Value *
Value::find(const std::string &key) const
{
    if (_type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : _obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

Value &
Value::append(Value v)
{
    psim_assert(_type == Type::Array, "append on a non-array");
    _arr.push_back(std::move(v));
    return _arr.back();
}

Value &
Value::set(const std::string &key, Value v)
{
    psim_assert(_type == Type::Object, "set on a non-object");
    for (auto &[k, existing] : _obj) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    _obj.emplace_back(key, std::move(v));
    return _obj.back().second;
}

std::size_t
Value::size() const
{
    switch (_type) {
      case Type::Array: return _arr.size();
      case Type::Object: return _obj.size();
      default: return 0;
    }
}

namespace
{

/** Strict recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text, const std::string &what)
        : _text(text), _what(what) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (_pos != _text.size())
            fail("trailing garbage after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        // Report a 1-based line number for the current position.
        std::size_t line = 1;
        for (std::size_t i = 0; i < _pos && i < _text.size(); ++i) {
            if (_text[i] == '\n')
                ++line;
        }
        psim_fatal("%s:%zu: %s", _what.c_str(), line, msg.c_str());
    }

    void
    skipWs()
    {
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++_pos;
        }
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of document");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() + "'");
        ++_pos;
    }

    bool
    consume(char c)
    {
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (_pos >= _text.size() || _text[_pos] != *p)
                fail(std::string("malformed literal (expected \"") + word +
                     "\")");
            ++_pos;
        }
    }

    Value
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return object();
          case '[': return array();
          case '"': return Value(string());
          case 't': literal("true"); return Value(true);
          case 'f': literal("false"); return Value(false);
          case 'n': literal("null"); return Value();
          default: return number();
        }
    }

    Value
    object()
    {
        expect('{');
        Value obj = Value::makeObject();
        skipWs();
        if (consume('}'))
            return obj;
        while (true) {
            skipWs();
            std::string key = string();
            if (obj.find(key))
                fail("duplicate object key \"" + key + "\"");
            skipWs();
            expect(':');
            obj.set(key, value());
            skipWs();
            if (consume(','))
                continue;
            expect('}');
            return obj;
        }
    }

    Value
    array()
    {
        expect('[');
        Value arr = Value::makeArray();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.append(value());
            skipWs();
            if (consume(','))
                continue;
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            char e = _text[_pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += unicodeEscape(); break;
              default: fail("unknown escape sequence");
            }
        }
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (_pos >= _text.size())
                fail("truncated \\u escape");
            char c = _text[_pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        return v;
    }

    std::string
    unicodeEscape()
    {
        unsigned cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (_pos + 1 >= _text.size() || _text[_pos] != '\\' ||
                _text[_pos + 1] != 'u')
                fail("high surrogate without a low surrogate");
            _pos += 2;
            unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
                fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
        }
        // UTF-8 encode.
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    Value
    number()
    {
        std::size_t start = _pos;
        if (consume('-')) {}
        if (_pos >= _text.size() || !std::isdigit(
                    static_cast<unsigned char>(_text[_pos])))
            fail("malformed number");
        // Integer part: no leading zeros (except a lone 0).
        if (_text[_pos] == '0') {
            ++_pos;
            if (_pos < _text.size() &&
                std::isdigit(static_cast<unsigned char>(_text[_pos])))
                fail("leading zero in number");
        } else {
            while (_pos < _text.size() &&
                   std::isdigit(static_cast<unsigned char>(_text[_pos])))
                ++_pos;
        }
        if (consume('.')) {
            if (_pos >= _text.size() || !std::isdigit(
                        static_cast<unsigned char>(_text[_pos])))
                fail("malformed fraction");
            while (_pos < _text.size() &&
                   std::isdigit(static_cast<unsigned char>(_text[_pos])))
                ++_pos;
        }
        if (_pos < _text.size() && (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-'))
                ++_pos;
            if (_pos >= _text.size() || !std::isdigit(
                        static_cast<unsigned char>(_text[_pos])))
                fail("malformed exponent");
            while (_pos < _text.size() &&
                   std::isdigit(static_cast<unsigned char>(_text[_pos])))
                ++_pos;
        }
        std::string tok = _text.substr(start, _pos - start);
        return Value(std::strtod(tok.c_str(), nullptr));
    }

    const std::string &_text;
    const std::string _what;
    std::size_t _pos = 0;
};

void
serializeString(const std::string &s, std::string &out)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
serializeValue(const Value &v, std::string &out)
{
    switch (v.type()) {
      case Value::Type::Null:
        out += "null";
        break;
      case Value::Type::Bool:
        out += v.asBool("") ? "true" : "false";
        break;
      case Value::Type::Number: {
        double n = v.asNumber("");
        if (!std::isfinite(n)) {
            // JSON has no NaN/Inf; an absent value (the prefetch
            // efficiency of a run that issued none) becomes null.
            out += "null";
            break;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out += buf;
        break;
      }
      case Value::Type::String:
        serializeString(v.asString(""), out);
        break;
      case Value::Type::Array: {
        out += '[';
        bool first = true;
        for (const Value &e : v.asArray("")) {
            if (!first)
                out += ',';
            first = false;
            serializeValue(e, out);
        }
        out += ']';
        break;
      }
      case Value::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, e] : v.asObject("")) {
            if (!first)
                out += ',';
            first = false;
            serializeString(k, out);
            out += ':';
            serializeValue(e, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

Value
parse(const std::string &text, const std::string &what)
{
    return Parser(text, what).document();
}

std::string
serialize(const Value &v)
{
    std::string out;
    serializeValue(v, out);
    return out;
}

Value
loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        psim_fatal("cannot read %s", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof())
        psim_fatal("error reading %s", path.c_str());
    return parse(ss.str(), path);
}

} // namespace psim::json
