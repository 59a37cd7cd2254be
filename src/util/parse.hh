/**
 * @file
 * The one rule for a number read from an input file or a flag.
 *
 * Every ingest surface (the CLI flags, the --inject-faults spec,
 * meta.json, the JSONL logs and quarantine.jsonl) reads its numbers
 * through these two functions, so all of them accept and reject the
 * same texts (docs/campaign-format.md "Scalar fields").
 *
 * Both return nullptr on success, otherwise a short reason for the
 * rejection that reads after "'<text>' is ...":
 * "not an unsigned decimal integer", "not a finite decimal number" or
 * kOutOfRange.
 */

#ifndef DEJAVUZZ_UTIL_PARSE_HH
#define DEJAVUZZ_UTIL_PARSE_HH

#include <cstdint>
#include <limits>
#include <string_view>

namespace dejavuzz {

/** The reason returned for a well-formed number outside [lo, hi]. An
 *  inline array has one address program-wide, so callers may compare
 *  the returned pointer against it. */
inline constexpr char kOutOfRange[] = "out of range";

/**
 * Unsigned decimal integer in [@p lo, @p hi]: one or more digits and
 * nothing else, so no sign, whitespace, base prefix or suffix.
 */
const char *parseUnsigned(std::string_view text, uint64_t &out,
                          uint64_t lo = 0,
                          uint64_t hi =
                              std::numeric_limits<uint64_t>::max());

/**
 * Finite decimal number in [@p lo, @p hi]: an optional '-', digits
 * with an optional fraction, and an optional exponent. nan, inf, hex
 * floats, whitespace and values past the double range are rejected.
 */
const char *parseFinite(std::string_view text, double &out, double lo,
                        double hi);

} // namespace dejavuzz

#endif // DEJAVUZZ_UTIL_PARSE_HH
