/**
 * @file
 * Deterministic fault injection for the campaign runtime
 * (`--inject-faults SPEC`).
 *
 * Robustness code is only trustworthy if every recovery path runs
 * regularly, so the failpoints below are compiled in unconditionally
 * and armed at runtime from a spec string. Each failpoint is driven
 * by one process-wide seeded Rng: a given (seed, probability, call
 * sequence) always fires the same faults, so single-threaded CI runs
 * reproduce exactly and multi-threaded runs stay statistically
 * stable. Fault decisions never feed the fuzzing RNG streams — with
 * no spec armed, every shouldFail() is a single relaxed load and the
 * campaign is bit-identical to a build without this header.
 *
 * Spec grammar (comma-separated, docs/robustness.md):
 *
 *   seed=S,KIND=P[:MAX],...
 *
 * where KIND is one of `batch-throw`, `batch-hang`, `short-write`,
 * `torn-rename`, `enospc`; P is the firing probability in [0, 1];
 * and the optional :MAX caps the total number of firings (so CI can
 * arm `enospc=1:2` and know exactly two writes fail).
 */

#ifndef DEJAVUZZ_CAMPAIGN_FAULTS_HH
#define DEJAVUZZ_CAMPAIGN_FAULTS_HH

#include <cstdint>
#include <string>

namespace dejavuzz::campaign {

/** Failpoint identities, one per recovery path under test. */
enum class Fault : uint8_t {
    BatchThrow, ///< executor: runBatch throws before running
    BatchHang,  ///< executor: batch behaves as non-terminating
    ShortWrite, ///< campaign IO: artifact write truncated mid-file
    TornRename, ///< campaign IO: rename leaves a truncated target
    Enospc,     ///< campaign IO: write fails as if the disk filled
    kCount,
};

inline constexpr unsigned kNumFaults =
    static_cast<unsigned>(Fault::kCount);

/** Stable spec/diagnostic name ("batch-throw", ...). */
const char *faultName(Fault f);

/**
 * Arm the registry from @p spec (grammar above). Replaces any
 * previous configuration. An empty spec disarms everything. Returns
 * false with a diagnostic in @p error on a malformed spec (unknown
 * kind; a seed or cap that is not an unsigned decimal integer; a
 * probability that is not a finite decimal in [0, 1]), leaving the
 * registry disarmed.
 */
bool armFaults(const std::string &spec, std::string *error = nullptr);

/** Disarm every failpoint (tests; also what armFaults("") does). */
void disarmFaults();

/** Whether any failpoint is currently armed (one relaxed load). */
bool faultsArmed();

/**
 * Roll failpoint @p f: true when it fires this call. Firing
 * decrements the kind's remaining-count cap and bumps the
 * `faults_injected` obs counter. Always false when disarmed.
 */
bool shouldFail(Fault f);

/** Total failpoint firings since the registry was last armed. */
uint64_t faultsFired();

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_FAULTS_HH
