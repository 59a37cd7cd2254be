/**
 * @file
 * Mutex-sharded shared corpus of interesting test cases.
 *
 * Workers offer() cases whose Phase-2 run propagated taint and gained
 * coverage; offers take exactly one shard lock, so contention scales
 * down with the shard count. Every shard is bounded: when full, the
 * entry with the smallest (gain, worker, seq) order is evicted, which
 * makes the retained set the top-N of everything ever offered —
 * independent of arrival order, so barrier-time snapshots are
 * deterministic no matter how worker threads interleave.
 *
 * Cross-worker seed stealing happens at epoch barriers: the
 * orchestrator snapshots the corpus in a canonical order and injects
 * high-gain cases authored by other workers into each fuzzer.
 */

#ifndef DEJAVUZZ_CAMPAIGN_CORPUS_HH
#define DEJAVUZZ_CAMPAIGN_CORPUS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "core/seed.hh"
#include "ift/coverage.hh"

namespace dejavuzz::campaign {

/** One admitted corpus entry. */
struct CorpusEntry
{
    core::TestCase tc;
    uint64_t gain = 0;    ///< fresh coverage points when admitted
    unsigned worker = 0;  ///< authoring worker
    uint64_t seq = 0;     ///< author-local admission sequence number
    std::string config;   ///< authoring worker's core config name
};

/** Lightweight identity of a corpus entry (no test-case payload). */
struct CorpusKey
{
    uint64_t gain = 0;
    unsigned worker = 0;
    uint64_t seq = 0;
    std::string config;
};

/** Parsed contents of a persisted corpus file. */
struct CorpusFile
{
    uint32_t version = 0;
    uint64_t master_seed = 0;     ///< master seed of the saving campaign
    std::vector<CorpusEntry> entries;
};

/** Canonical corpus order: gain desc, then (worker, seq) asc. */
bool corpusOrderBefore(const CorpusKey &a, const CorpusKey &b);
bool corpusOrderBefore(const CorpusEntry &a, const CorpusEntry &b);

class SharedCorpus
{
  public:
    /**
     * @p shards lock-striping width; @p shard_cap bound on entries
     * retained per shard (total capacity = shards * shard_cap).
     */
    explicit SharedCorpus(unsigned shards = 8,
                          unsigned shard_cap = 64);

    SharedCorpus(const SharedCorpus &) = delete;
    SharedCorpus &operator=(const SharedCorpus &) = delete;

    /**
     * Admit @p entry. Thread-safe; locks a single shard chosen by
     * hashing (worker, seq). Entries below every retained gain in a
     * full shard are dropped. Returns whether the entry was
     * retained (it may still be evicted by a later, stronger offer).
     */
    bool offer(CorpusEntry entry);

    /** Number of retained entries (approximate under concurrency). */
    size_t size() const;

    /**
     * Snapshot every retained entry in canonical order. Determinism
     * holds when no concurrent offer() is running (the orchestrator
     * snapshots only at epoch barriers).
     */
    std::vector<CorpusEntry> snapshotSorted() const;

    /**
     * Snapshot only (gain, worker, seq) identities in canonical
     * order — cheap enough to call every epoch; the orchestrator
     * selects steal targets from this and fetch()es just the few
     * entries it actually injects.
     */
    std::vector<CorpusKey> snapshotKeys() const;

    /**
     * Copy the entry identified by (worker, seq) into @p out.
     * Returns false when it has been evicted since the snapshot.
     */
    bool fetch(unsigned worker, uint64_t seq, CorpusEntry &out) const;

    /**
     * Drop the entry identified by (worker, seq) — how quarantine
     * pulls a poison seed out of circulation. Thread-safe (single
     * shard lock). Returns false when no such entry is retained.
     */
    bool remove(unsigned worker, uint64_t seq);

    /**
     * Drop every retained entry whose canonical test-case hash
     * (hashTestCase, io_util.hh) matches @p tc — content-based quarantine
     * removal for seeds whose (worker, seq) identity was shed on the
     * inject path. Returns the number of entries removed. Takes each
     * shard lock in turn; call from barriers or other quiescent
     * points.
     */
    size_t removeMatching(const core::TestCase &tc);

    /** Corpus format version written by saveTo(), the only one
     *  loadFrom() accepts. The format is specified in
     *  docs/campaign-format.md. */
    static constexpr uint32_t kFormatVersion = 2;

    /**
     * Serialize every retained entry, in canonical order, to @p os
     * (binary). @p master_seed records the saving campaign's master
     * seed in the header. Returns false when the stream fails.
     */
    bool saveTo(std::ostream &os, uint64_t master_seed) const;

    /**
     * Parse a corpus file produced by saveTo(). Strictly validated:
     * a bad magic/version, truncated stream, or out-of-range enum
     * fails the load (with a diagnostic in @p error when non-null)
     * rather than yielding a half-read corpus.
     */
    static bool loadFrom(std::istream &is, CorpusFile &out,
                         std::string *error = nullptr);

    /** What minimize() removed. */
    struct MinimizeStats
    {
        size_t before = 0;      ///< entries prior to minimization
        size_t kept = 0;        ///< entries retained
        size_t duplicates = 0;  ///< dropped: content-identical twin kept
        size_t subsumed = 0;    ///< dropped: coverage already provided

        size_t dropped() const { return duplicates + subsumed; }
    };

    /** Coverage oracle for minimize(): the tuple set one test case
     *  produces on its own (core::Fuzzer::replayCase provides it). */
    using CoverageEval =
        std::function<std::vector<ift::CoveragePoint>(
            const CorpusEntry &)>;

    /**
     * Content-based corpus distillation. Walks the retained entries
     * in canonical order (highest gain first) and drops
     *  - content duplicates: entries whose canonical test-case hash
     *    (hashTestCase) matches an already-kept entry, and
     *  - coverage-subsumed entries: entries whose @p eval tuple set
     *    adds nothing to the union of the kept entries' sets
     *    (skipped when @p eval is null — dedup only).
     * The kept set's coverage union equals the original union by
     * construction. Not thread-safe against concurrent offer();
     * call at a barrier or after the campaign finished.
     */
    MinimizeStats minimize(const CoverageEval &eval = nullptr);

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::vector<CorpusEntry> entries;
    };

    unsigned shard_cap_;
    std::vector<Shard> shards_;
};

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_CORPUS_HH
