/**
 * @file
 * Minimal JSON parsing for the DejaVuzz campaign log and the other
 * flat-JSON artifacts (meta.json, triage.jsonl, quarantine.jsonl).
 *
 * Every record writeCampaignJsonl() emits is a flat JSON object whose
 * values are strings, numbers, booleans or null — no arrays, no
 * nesting (docs/campaign-format.md). This parser supports exactly
 * that subset and rejects everything else, which doubles as schema
 * enforcement: a nested value in a campaign log is a malformed log.
 */

#ifndef DEJAVUZZ_REPORT_JSON_HH
#define DEJAVUZZ_REPORT_JSON_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace dejavuzz::report {

/** One scalar JSON value. */
struct JsonValue
{
    enum class Kind : uint8_t { Null, Bool, Number, String };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    /** For numbers: the literal token, so integer consumers can
     *  reparse at full 64-bit precision (double only carries 53
     *  bits). */
    std::string raw;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
};

using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/**
 * Parse one line of the campaign log — a flat JSON object with
 * scalar values. Returns false (with a diagnostic in @p error when
 * non-null) on any syntax error, nested value, duplicate key, or
 * trailing garbage.
 */
bool parseFlatJsonObject(std::string_view line, JsonObject &out,
                         std::string *error = nullptr);

/**
 * Typed field reads over one parsed object, shared by every flat-JSON
 * ingest surface (meta.json, campaign.jsonl, triage.jsonl,
 * quarantine.jsonl). The first failure is kept in the error string
 * and turns every later read into a no-op, so a record is read field
 * by field and checked once with ok(). An absent optional field
 * leaves its destination untouched.
 *
 * An integer must be a plain decimal literal (util/parse.hh) that
 * fits its destination: reading into a uint32_t rejects 2^32. A
 * double must be finite and non-negative.
 */
class FieldReader
{
  public:
    FieldReader(const JsonObject &obj, std::string &error)
        : obj_(obj), error_(error)
    {}

    bool ok() const { return error_.empty(); }

    template <std::unsigned_integral T>
        requires(!std::same_as<T, bool>)
    void
    read(std::string_view key, T &out, bool required = true)
    {
        uint64_t value = 0;
        if (readUnsigned(key, value, std::numeric_limits<T>::max(),
                         required)) {
            out = static_cast<T>(value);
        }
    }
    void read(std::string_view key, double &out, bool required = true);
    void read(std::string_view key, std::string &out,
              bool required = true);
    void read(std::string_view key, bool &out, bool required = true);

  private:
    const JsonValue *find(std::string_view key, bool required);
    bool readUnsigned(std::string_view key, uint64_t &out, uint64_t hi,
                      bool required);
    void fail(std::string_view key, const std::string &what);

    const JsonObject &obj_;
    std::string &error_;
};

} // namespace dejavuzz::report

#endif // DEJAVUZZ_REPORT_JSON_HH
