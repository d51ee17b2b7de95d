#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace spikesim::obs {

JsonValue JsonValue::makeBool(bool b)
{
    JsonValue v(Kind::Bool);
    v.bool_ = b;
    return v;
}

JsonValue JsonValue::makeNumber(double n)
{
    JsonValue v(Kind::Number);
    v.num_ = n;
    return v;
}

JsonValue JsonValue::makeString(std::string s)
{
    JsonValue v(Kind::String);
    v.str_ = std::move(s);
    return v;
}

const JsonValue* JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

bool JsonValue::operator==(const JsonValue& o) const
{
    if (kind_ != o.kind_)
        return false;
    switch (kind_) {
    case Kind::Null:
        return true;
    case Kind::Bool:
        return bool_ == o.bool_;
    case Kind::Number:
        return num_ == o.num_;
    case Kind::String:
        return str_ == o.str_;
    case Kind::Array:
        return arr_ == o.arr_;
    case Kind::Object:
        return obj_ == o.obj_;
    }
    return false;
}

std::string jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string jsonNumber(double v)
{
    // Integers (the common case for counters and timestamps) print
    // without an exponent or trailing ".0"; everything else uses
    // shortest-round-trip formatting.
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN; never emitted in practice.
    char buf[64];
    auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, end);
}

namespace {

void dumpTo(const JsonValue& v, std::string& out)
{
    switch (v.kind()) {
    case JsonValue::Kind::Null:
        out += "null";
        break;
    case JsonValue::Kind::Bool:
        out += v.boolean() ? "true" : "false";
        break;
    case JsonValue::Kind::Number:
        out += jsonNumber(v.number());
        break;
    case JsonValue::Kind::String:
        out += '"';
        out += jsonEscape(v.str());
        out += '"';
        break;
    case JsonValue::Kind::Array: {
        out += '[';
        bool first = true;
        for (const auto& e : v.array()) {
            if (!first)
                out += ',';
            first = false;
            dumpTo(e, out);
        }
        out += ']';
        break;
    }
    case JsonValue::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto& [k, e] : v.members()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(k);
            out += "\":";
            dumpTo(e, out);
        }
        out += '}';
        break;
    }
    }
}

class Parser
{
  public:
    Parser(std::string_view text, std::string* err)
        : text_(text), err_(err)
    {
    }

    bool parse(JsonValue& out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 200;

    bool fail(const char* msg)
    {
        if (err_ && err_->empty())
            *err_ = std::string(msg) + " at byte " +
                    std::to_string(pos_);
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue& out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case 'n':
            out = JsonValue();
            return literal("null");
        case 't':
            out = JsonValue::makeBool(true);
            return literal("true");
        case 'f':
            out = JsonValue::makeBool(false);
            return literal("false");
        case '"':
            return parseString(out);
        case '[':
            return parseArray(out, depth);
        case '{':
            return parseObject(out, depth);
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(out);
            return fail("unexpected character");
        }
    }

    bool parseNumber(JsonValue& out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            return fail("malformed number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        std::string tok(text_.substr(start, pos_ - start));
        const double v = std::strtod(tok.c_str(), nullptr);
        // A literal beyond the double range would parse to +-inf, which
        // the writer can only emit as null: the document would not
        // survive a round trip. (Underflow to zero or a denormal is a
        // faithful, round-trippable value and stays accepted.)
        if (std::isinf(v)) {
            pos_ = start;
            return fail("number out of range");
        }
        out = JsonValue::makeNumber(v);
        return true;
    }

    bool parseString(JsonValue& out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = JsonValue::makeString(std::move(s));
        return true;
    }

    bool parseRawString(std::string& s)
    {
        ++pos_; // opening quote
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"':
                    s += '"';
                    break;
                case '\\':
                    s += '\\';
                    break;
                case '/':
                    s += '/';
                    break;
                case 'b':
                    s += '\b';
                    break;
                case 'f':
                    s += '\f';
                    break;
                case 'n':
                    s += '\n';
                    break;
                case 'r':
                    s += '\r';
                    break;
                case 't':
                    s += '\t';
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // Encode the code point as UTF-8 (surrogate pairs
                    // are passed through as-is; we never emit them).
                    if (cp < 0x80) {
                        s += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        s += static_cast<char>(0xc0 | (cp >> 6));
                        s += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        s += static_cast<char>(0xe0 | (cp >> 12));
                        s += static_cast<char>(0x80 |
                                               ((cp >> 6) & 0x3f));
                        s += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                }
                default:
                    return fail("bad escape");
                }
            } else {
                s += c;
            }
        }
    }

    bool parseArray(JsonValue& out, int depth)
    {
        ++pos_; // '['
        out = JsonValue(JsonValue::Kind::Array);
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue elem;
            skipWs();
            if (!parseValue(elem, depth + 1))
                return false;
            out.array().push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']'");
        }
    }

    bool parseObject(JsonValue& out, int depth)
    {
        ++pos_; // '{'
        out = JsonValue(JsonValue::Kind::Object);
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseRawString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':'");
            JsonValue val;
            skipWs();
            if (!parseValue(val, depth + 1))
                return false;
            out.members().emplace_back(std::move(key),
                                       std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}'");
        }
    }

    std::string_view text_;
    std::string* err_;
    size_t pos_ = 0;
};

} // namespace

std::string JsonValue::dump() const
{
    std::string out;
    dumpTo(*this, out);
    return out;
}

bool parseJson(std::string_view text, JsonValue& out, std::string* err)
{
    if (err)
        err->clear();
    Parser p(text, err);
    return p.parse(out);
}

} // namespace spikesim::obs
