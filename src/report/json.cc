#include "report/json.hh"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <limits>

#include "util/parse.hh"

namespace dejavuzz::report {

namespace {

class Cursor
{
  public:
    explicit Cursor(std::string_view text) : text_(text) {}

    bool
    done() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return done() ? '\0' : text_[pos_];
    }

    char
    take()
    {
        return done() ? '\0' : text_[pos_++];
    }

    void
    skipSpace()
    {
        while (!done() && std::isspace(
                              static_cast<unsigned char>(peek()))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    std::string_view
    rest() const
    {
        return text_.substr(pos_);
    }

    size_t
    pos() const
    {
        return pos_;
    }

  private:
    std::string_view text_;
    size_t pos_ = 0;
};

bool
fail(std::string *error, const std::string &what, const Cursor &cur)
{
    if (error)
        *error = what + " at offset " + std::to_string(cur.pos());
    return false;
}

/** Append @p cp as UTF-8 (sufficient for \uXXXX escapes; the log
 *  writer only ever emits escapes below U+0020). */
void
appendUtf8(std::string &out, uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

bool
parseString(Cursor &cur, std::string &out, std::string *error)
{
    if (!cur.consume('"'))
        return fail(error, "expected '\"'", cur);
    out.clear();
    for (;;) {
        if (cur.done())
            return fail(error, "unterminated string", cur);
        char c = cur.take();
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        char esc = cur.take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            uint32_t cp = 0;
            for (int i = 0; i < 4; ++i) {
                char h = cur.take();
                cp <<= 4;
                if (h >= '0' && h <= '9')
                    cp |= static_cast<uint32_t>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    cp |= static_cast<uint32_t>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    cp |= static_cast<uint32_t>(h - 'A' + 10);
                else
                    return fail(error, "bad \\u escape", cur);
            }
            appendUtf8(out, cp);
            break;
          }
          default:
            return fail(error, "bad escape", cur);
        }
    }
}

bool
parseValue(Cursor &cur, JsonValue &out, std::string *error)
{
    cur.skipSpace();
    char c = cur.peek();
    if (c == '"') {
        out.kind = JsonValue::Kind::String;
        return parseString(cur, out.text, error);
    }
    if (c == '{' || c == '[')
        return fail(error, "nested values are not part of the "
                           "campaign-log schema", cur);
    if (cur.consumeWord("true")) {
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return true;
    }
    if (cur.consumeWord("false")) {
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return true;
    }
    if (cur.consumeWord("null")) {
        out.kind = JsonValue::Kind::Null;
        return true;
    }
    // Number: match the strict JSON grammar
    // (-?digits[.digits][(e|E)[+-]digits]) ourselves — strtod alone
    // would also accept nan/inf/hex floats, which are not JSON.
    const std::string_view rest = cur.rest();
    size_t len = 0;
    auto digits = [&]() {
        size_t start = len;
        while (len < rest.size() && rest[len] >= '0' &&
               rest[len] <= '9') {
            ++len;
        }
        return len > start;
    };
    if (len < rest.size() && rest[len] == '-')
        ++len;
    if (!digits())
        return fail(error, "expected a JSON value", cur);
    if (len < rest.size() && rest[len] == '.') {
        ++len;
        if (!digits())
            return fail(error, "bad number", cur);
    }
    if (len < rest.size() && (rest[len] == 'e' ||
                              rest[len] == 'E')) {
        ++len;
        if (len < rest.size() && (rest[len] == '+' ||
                                  rest[len] == '-')) {
            ++len;
        }
        if (!digits())
            return fail(error, "bad number", cur);
    }
    out.kind = JsonValue::Kind::Number;
    out.raw = std::string(rest.substr(0, len));
    out.number = std::strtod(out.raw.c_str(), nullptr);
    for (size_t i = 0; i < len; ++i)
        cur.take();
    return true;
}

} // namespace

bool
parseFlatJsonObject(std::string_view line, JsonObject &out,
                    std::string *error)
{
    out.clear();
    Cursor cur(line);
    cur.skipSpace();
    if (!cur.consume('{'))
        return fail(error, "expected '{'", cur);
    cur.skipSpace();
    if (!cur.consume('}')) {
        for (;;) {
            cur.skipSpace();
            std::string key;
            if (!parseString(cur, key, error))
                return false;
            cur.skipSpace();
            if (!cur.consume(':'))
                return fail(error, "expected ':'", cur);
            JsonValue value;
            if (!parseValue(cur, value, error))
                return false;
            if (!out.emplace(key, std::move(value)).second)
                return fail(error, "duplicate key \"" + key + "\"",
                            cur);
            cur.skipSpace();
            if (cur.consume(','))
                continue;
            if (cur.consume('}'))
                break;
            return fail(error, "expected ',' or '}'", cur);
        }
    }
    cur.skipSpace();
    if (!cur.done())
        return fail(error, "trailing characters after object", cur);
    return true;
}

const JsonValue *
FieldReader::find(std::string_view key, bool required)
{
    if (!ok())
        return nullptr;
    const auto it = obj_.find(key);
    if (it != obj_.end())
        return &it->second;
    if (required)
        error_ = "missing field \"" + std::string(key) + "\"";
    return nullptr;
}

void
FieldReader::fail(std::string_view key, const std::string &what)
{
    error_ = "field \"" + std::string(key) + "\" " + what;
}

bool
FieldReader::readUnsigned(std::string_view key, uint64_t &out,
                          uint64_t hi, bool required)
{
    const JsonValue *value = find(key, required);
    if (!value)
        return false;
    // Parse the literal token, not the double: counters such as
    // master_seed use all 64 bits, which a double cannot carry.
    const char *why = value->isNumber()
                          ? parseUnsigned(value->raw, out, 0, hi)
                          : "not a number";
    if (!why)
        return true;
    fail(key, why == kOutOfRange
                  ? "exceeds the " + std::to_string(std::bit_width(hi)) +
                        "-bit range"
                  : "must be a non-negative integer");
    return false;
}

void
FieldReader::read(std::string_view key, double &out, bool required)
{
    const JsonValue *value = find(key, required);
    if (value && (!value->isNumber() ||
                  parseFinite(value->raw, out, 0.0,
                              std::numeric_limits<double>::max()))) {
        fail(key, "must be a finite non-negative number");
    }
}

void
FieldReader::read(std::string_view key, std::string &out,
                  bool required)
{
    const JsonValue *value = find(key, required);
    if (!value)
        return;
    if (value->isString())
        out = value->text;
    else
        fail(key, "must be a string");
}

void
FieldReader::read(std::string_view key, bool &out, bool required)
{
    const JsonValue *value = find(key, required);
    if (!value)
        return;
    if (value->kind == JsonValue::Kind::Bool)
        out = value->boolean;
    else
        fail(key, "must be a boolean");
}

} // namespace dejavuzz::report
