/**
 * @file
 * Minimal JSON document tree for the observability layer: build,
 * serialize and parse tia-metrics/v1 documents without external
 * dependencies.
 *
 * Numbers keep their integer-ness: a value built from an integral type
 * serializes without a decimal point (counters stay exact well past
 * 2^53 would-be-double territory), while doubles serialize with %.9g.
 * Non-finite doubles serialize as `null` — JSON has no NaN/inf, and a
 * NaN CPI (no retirements, see PerfCounters::cpi) must survive a
 * round trip as "no value" rather than corrupt the document.
 *
 * The parser accepts strict JSON (no comments, no trailing commas) and
 * exists so the schema checker (tools/tia_metrics_check.cc) and the
 * tests can validate what the tools emitted.
 */

#ifndef TIA_OBS_JSON_HH
#define TIA_OBS_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tia {

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(bool value) : kind_(Kind::Bool), bool_(value) {}
    JsonValue(double value) : kind_(Kind::Number), num_(value) {}
    JsonValue(std::int64_t value)
        : kind_(Kind::Number), num_(static_cast<double>(value)),
          int_(value), isInt_(true)
    {}
    JsonValue(std::uint64_t value)
        : JsonValue(static_cast<std::int64_t>(value))
    {}
    JsonValue(int value) : JsonValue(static_cast<std::int64_t>(value)) {}
    JsonValue(unsigned value) : JsonValue(static_cast<std::int64_t>(value))
    {}
    JsonValue(const char *value) : kind_(Kind::String), str_(value) {}
    JsonValue(std::string value)
        : kind_(Kind::String), str_(std::move(value))
    {}

    static JsonValue
    array()
    {
        JsonValue v;
        v.kind_ = Kind::Array;
        return v;
    }

    static JsonValue
    object()
    {
        JsonValue v;
        v.kind_ = Kind::Object;
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }
    const std::string &str() const { return str_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in insertion order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Append to an array (converts a Null value into an array). */
    void
    push(JsonValue value)
    {
        kind_ = Kind::Array;
        items_.push_back(std::move(value));
    }

    /**
     * Object member access; creates the member (and converts a Null
     * value into an object) if absent.
     */
    JsonValue &operator[](const std::string &key);

    /** Lookup without creation; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Serialize with 2-space indentation per nesting level. */
    std::string dump() const;

    /** Parse strict JSON; on failure returns nullopt and sets @p error. */
    static std::optional<JsonValue> parse(std::string_view text,
                                          std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, unsigned depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    bool isInt_ = false;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Write @p text to @p path, replacing the file. Returns false unless
 * the open, the write and the close all succeed: a full disk often
 * surfaces only when the buffered bytes are flushed at close.
 */
bool writeTextFile(const std::string &path, std::string_view text);

} // namespace tia

#endif // TIA_OBS_JSON_HH
