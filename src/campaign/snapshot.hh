/**
 * @file
 * Campaign checkpoints: everything a campaign directory persists so
 * a resumed campaign continues exactly where the saved one stopped.
 *
 * A checkpoint captures the fleet state that lives at epoch barriers:
 * the per-config-group global coverage bitmaps (so novelty gates stay
 * monotone across resume), each shard's batch counter / stolen-seed
 * set / pending injections (so the resumed epoch plan re-issues no
 * identity and drops no queued seed), the steal Rng state, the
 * iteration/epoch cursors, and the deduplicated bug ledger with each
 * bug's exact reproducer test case (what dejavuzz-replay re-executes).
 * Together with the corpus file, restoring a checkpoint makes a
 * resumed iteration-budgeted campaign bit-identical to an
 * uninterrupted run with the same master seed — asserted in
 * tests/test_campaign.cc.
 *
 * The binary format (magic "DVZSNAPS", version
 * kSnapshotFormatVersion) is specified in docs/campaign-format.md
 * and read/written by snapshot_io.cc on the strict io_util.hh layer:
 * corrupt or truncated snapshots fail the load cleanly.
 */

#ifndef DEJAVUZZ_CAMPAIGN_SNAPSHOT_HH
#define DEJAVUZZ_CAMPAIGN_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "campaign/ledger.hh"
#include "core/seed.hh"

namespace dejavuzz::campaign {

/** Snapshot format version written by saveCheckpoint(), the only one
 *  loadCheckpoint() accepts. */
constexpr uint32_t kSnapshotFormatVersion = 2;

/** One config group's global coverage bitmaps. */
struct CoverageGroupSnap
{
    std::string config; ///< group key (config name, or config+head)

    struct Module
    {
        std::string name;  ///< registered module name (shape check)
        uint32_t slots = 0;
        std::vector<uint64_t> words; ///< ceil(slots / 64) bitmap words
    };
    std::vector<Module> modules;
};

/** One shard's barrier-time continuation state. */
struct ShardSnap
{
    uint64_t next_batch = 0; ///< shard-global batch counter
    /** (author, seq) corpus identities already injected here. */
    std::vector<std::pair<uint32_t, uint64_t>> stolen;
    /** Corpus seeds stolen at the final barrier, not yet executed. */
    std::vector<core::TestCase> pending_inject;
};

/** Complete persistable campaign state (minus the corpus file). */
struct CampaignCheckpoint
{
    uint32_t version = kSnapshotFormatVersion;
    uint64_t master_seed = 0;
    uint64_t iterations_done = 0; ///< fleet iterations executed
    uint64_t epochs_done = 0;     ///< epochs completed
    uint64_t steals = 0;          ///< cumulative cross-shard steals
    uint64_t preloaded = 0;       ///< cumulative preloaded entries
    std::array<uint64_t, 4> steal_rng{}; ///< steal Rng engine state
    /** (author, seq) identities admitted via preloadCorpus() — they
     *  carry different steal-eligibility rules than shard-authored
     *  entries, so a resume must reinstate the set, not just the
     *  count. */
    std::vector<std::pair<uint32_t, uint64_t>> preloaded_ids;
    std::vector<CoverageGroupSnap> groups;
    std::vector<ShardSnap> shards;
    /** Deduplicated findings, in signature order, each with its
     *  reproducer test case. */
    std::vector<BugRecord> ledger;
};

/**
 * Serialize @p cp in the versioned binary snapshot format. Returns
 * false when the stream fails.
 */
bool saveCheckpoint(std::ostream &os, const CampaignCheckpoint &cp);

/**
 * Strictly parse a snapshot written by saveCheckpoint(). Bad magic,
 * an unknown version, truncation, out-of-range enums/counts, a
 * degenerate Rng state, or trailing bytes all fail the load with a
 * diagnostic in @p error (when non-null); @p out is then unusable.
 */
bool loadCheckpoint(std::istream &is, CampaignCheckpoint &out,
                    std::string *error = nullptr);

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_SNAPSHOT_HH
