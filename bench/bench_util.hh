/**
 * @file
 * Shared helpers for the experiment harnesses: env-var scaling knobs
 * and wall-clock timing.
 */

#ifndef DEJAVUZZ_BENCH_BENCH_UTIL_HH
#define DEJAVUZZ_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/parse.hh"

namespace dejavuzz::bench {

/** Integer knob from the environment with a default; a value that is
 *  not an unsigned decimal integer exits 2 with a diagnostic. */
inline uint64_t
envKnob(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    uint64_t n = 0;
    if (const char *why = parseUnsigned(value, n)) {
        std::fprintf(stderr, "bad value for %s: '%s' is %s\n", name,
                     value, why);
        std::exit(2);
    }
    return n;
}

class Stopwatch
{
  public:
    Stopwatch() : start_(clock::now()) {}
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }
    void reset() { start_ = clock::now(); }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

inline void
banner(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace dejavuzz::bench

#endif // DEJAVUZZ_BENCH_BENCH_UTIL_HH
