#include "util/parse.hh"

#include <charconv>
#include <system_error>

namespace dejavuzz {

const char *
parseUnsigned(std::string_view text, uint64_t &out, uint64_t lo,
              uint64_t hi)
{
    // from_chars on an unsigned type takes digits only: no sign, no
    // whitespace, no "0x". A trailing non-digit stops it short.
    const char *end = text.data() + text.size();
    uint64_t value = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        return kOutOfRange;
    if (ec != std::errc() || stop != end)
        return "not an unsigned decimal integer";
    if (value < lo || value > hi)
        return kOutOfRange;
    out = value;
    return nullptr;
}

const char *
parseFinite(std::string_view text, double &out, double lo, double hi)
{
    // from_chars alone would also take "nan" and "inf"; allowing only
    // these characters shuts those (and whitespace) out.
    if (text.empty() ||
        text.find_first_not_of("0123456789.eE+-") !=
            std::string_view::npos) {
        return "not a finite decimal number";
    }
    const char *end = text.data() + text.size();
    double value = 0.0;
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        return kOutOfRange;
    if (ec != std::errc() || stop != end)
        return "not a finite decimal number";
    if (!(value >= lo && value <= hi))
        return kOutOfRange;
    out = value;
    return nullptr;
}

} // namespace dejavuzz
