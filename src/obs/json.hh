#ifndef SPIKESIM_OBS_JSON_HH
#define SPIKESIM_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * Minimal JSON value model, parser, and writer for the observability
 * layer: run manifests and Chrome trace-event files are written through
 * it, tools/obs_dump and tests/obs_test.cc parse them back, and the
 * trace schema validator walks the parsed tree. Deliberately small —
 * strict enough to round-trip everything this repo emits (objects,
 * arrays, strings with escapes, doubles, bools, null), with no
 * dependencies beyond the standard library.
 */

namespace spikesim::obs {

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    explicit JsonValue(Kind k) : kind_(k) {}

    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }
    const std::string& str() const { return str_; }

    std::vector<JsonValue>& array() { return arr_; }
    const std::vector<JsonValue>& array() const { return arr_; }

    /** Object members in insertion order (duplicates preserved). */
    std::vector<std::pair<std::string, JsonValue>>& members()
    {
        return obj_;
    }
    const std::vector<std::pair<std::string, JsonValue>>&
    members() const
    {
        return obj_;
    }

    /** First member with the given key, or null. Objects only. */
    const JsonValue* find(std::string_view key) const;

    /** Serialize compactly (no insignificant whitespace). */
    std::string dump() const;

    /**
     * Structural equality: same kind and contents, with numbers
     * compared exactly (round-trip checks re-parse our own output, and
     * the writer emits shortest-exact doubles).
     */
    bool operator==(const JsonValue& o) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/**
 * Parse a complete JSON document. Returns false on malformed input
 * (trailing junk included, and numbers whose magnitude overflows a
 * double) and, when `err` is non-null, stores a human-readable
 * complaint with the byte offset. Every accepted document round-trips:
 * parseJson(v.dump()) yields a value equal to v.
 */
bool parseJson(std::string_view text, JsonValue& out,
               std::string* err = nullptr);

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(std::string_view s);

/** Format a double the way the writer does (shortest exact form). */
std::string jsonNumber(double v);

} // namespace spikesim::obs

#endif // SPIKESIM_OBS_JSON_HH
