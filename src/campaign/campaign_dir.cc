#include "campaign/campaign_dir.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/io_util.hh"
#include "campaign/orchestrator.hh"
#include "campaign/quarantine.hh"
#include "campaign/stats.hh"
#include "obs/telemetry.hh"
#include "report/json.hh"

namespace dejavuzz::campaign {

namespace {

namespace fs = std::filesystem;

void
mismatch(std::vector<std::string> &out, const char *field,
         const std::string &saved, const std::string &current)
{
    if (saved != current) {
        out.push_back(std::string(field) + ": saved " + saved +
                      ", current " + current);
    }
}

void
mismatchU64(std::vector<std::string> &out, const char *field,
            uint64_t saved, uint64_t current)
{
    mismatch(out, field, std::to_string(saved),
             std::to_string(current));
}

} // namespace

CampaignDirPaths
campaignDirPaths(const std::string &dir)
{
    CampaignDirPaths paths;
    paths.meta = (fs::path(dir) / "meta.json").string();
    paths.log = (fs::path(dir) / "campaign.jsonl").string();
    paths.corpus = (fs::path(dir) / "corpus.bin").string();
    paths.snapshot = (fs::path(dir) / "campaign.snap").string();
    paths.quarantine = (fs::path(dir) / "quarantine.jsonl").string();
    return paths;
}

std::string
prevPath(const std::string &path)
{
    return path + ".prev";
}

size_t
sweepCampaignDir(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return 0;
    size_t removed = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            if (fs::remove(entry.path(), ec))
                ++removed;
        }
    }
    return removed;
}

CampaignMeta
metaFromOptions(const CampaignOptions &options)
{
    CampaignMeta meta;
    meta.meta_version = kMetaFormatVersion;
    meta.corpus_version = SharedCorpus::kFormatVersion;
    meta.snapshot_version = kSnapshotFormatVersion;
    meta.master_seed = options.master_seed;
    meta.workers = options.workers;
    meta.policy = shardPolicyName(options.policy);
    meta.core = options.base_config.name;
    meta.epoch_iterations = options.epoch_iterations;
    meta.batch_iterations = options.batch_iterations;
    meta.steal_batches = options.steal_batches;
    meta.steals_per_epoch = options.steals_per_epoch;
    uint32_t mask = options.fuzzer.model_mask & core::kAllModelMask;
    meta.model_mask = mask ? mask : core::kLegacyModelMask;
    meta.corpus_shards = options.corpus_shards;
    meta.corpus_shard_cap = options.corpus_shard_cap;
    return meta;
}

void
writeMeta(std::ostream &os, const CampaignMeta &meta)
{
    os << "{\"meta_version\":" << meta.meta_version
       << ",\"corpus_version\":" << meta.corpus_version
       << ",\"snapshot_version\":" << meta.snapshot_version
       << ",\"master_seed\":" << meta.master_seed
       << ",\"workers\":" << meta.workers
       << ",\"policy\":\"" << jsonEscape(meta.policy)
       << "\",\"core\":\"" << jsonEscape(meta.core)
       << "\",\"epoch\":" << meta.epoch_iterations
       << ",\"batch\":" << meta.batch_iterations
       << ",\"steal\":" << (meta.steal_batches ? "true" : "false")
       << ",\"steals\":" << meta.steals_per_epoch
       << ",\"templates\":" << meta.model_mask
       << ",\"corpus_shards\":" << meta.corpus_shards
       << ",\"corpus_cap\":" << meta.corpus_shard_cap
       << ",\"generation\":" << meta.generation << "}\n";
}

bool
readMeta(std::istream &is, CampaignMeta &out, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    std::string line, extra;
    // The object is one line; tolerate trailing blank lines only.
    while (std::getline(is, line) && line.empty()) {
    }
    if (line.empty())
        return fail("meta.json is empty");
    while (std::getline(is, extra)) {
        if (!extra.empty())
            return fail("meta.json: trailing content after the "
                        "meta object");
    }

    report::JsonObject obj;
    std::string json_error;
    if (!report::parseFlatJsonObject(line, obj, &json_error))
        return fail("meta.json: " + json_error);

    CampaignMeta meta;
    std::string field_error;
    report::FieldReader fields(obj, field_error);
    fields.read("meta_version", meta.meta_version);
    fields.read("corpus_version", meta.corpus_version);
    fields.read("snapshot_version", meta.snapshot_version);
    fields.read("master_seed", meta.master_seed);
    fields.read("workers", meta.workers);
    fields.read("policy", meta.policy);
    fields.read("core", meta.core);
    fields.read("epoch", meta.epoch_iterations);
    fields.read("batch", meta.batch_iterations);
    fields.read("steal", meta.steal_batches);
    fields.read("steals", meta.steals_per_epoch);
    fields.read("templates", meta.model_mask);
    fields.read("corpus_shards", meta.corpus_shards);
    fields.read("corpus_cap", meta.corpus_shard_cap);
    fields.read("generation", meta.generation);
    if (!fields.ok())
        return fail("meta.json: " + field_error);
    out = std::move(meta);
    return true;
}

std::vector<std::string>
metaMismatches(const CampaignMeta &saved, const CampaignMeta &current)
{
    std::vector<std::string> out;
    mismatchU64(out, "meta_version", saved.meta_version,
                current.meta_version);
    mismatchU64(out, "corpus_version", saved.corpus_version,
                current.corpus_version);
    mismatchU64(out, "snapshot_version", saved.snapshot_version,
                current.snapshot_version);
    mismatchU64(out, "master_seed", saved.master_seed,
                current.master_seed);
    mismatchU64(out, "workers", saved.workers, current.workers);
    mismatch(out, "policy", saved.policy, current.policy);
    mismatch(out, "core", saved.core, current.core);
    mismatchU64(out, "epoch", saved.epoch_iterations,
                current.epoch_iterations);
    mismatchU64(out, "batch", saved.batch_iterations,
                current.batch_iterations);
    mismatch(out, "steal", saved.steal_batches ? "true" : "false",
             current.steal_batches ? "true" : "false");
    mismatchU64(out, "steals", saved.steals_per_epoch,
                current.steals_per_epoch);
    // Compare as names: "templates: saved same-domain, current
    // same-domain,priv-transition" beats raw mask integers.
    mismatch(out, "templates", core::modelMaskNames(saved.model_mask),
             core::modelMaskNames(current.model_mask));
    mismatchU64(out, "corpus_shards", saved.corpus_shards,
                current.corpus_shards);
    mismatchU64(out, "corpus_cap", saved.corpus_shard_cap,
                current.corpus_shard_cap);
    return out;
}

bool
campaignDirExists(const std::string &dir)
{
    std::error_code ec;
    const CampaignDirPaths paths = campaignDirPaths(dir);
    return fs::is_regular_file(paths.meta, ec) ||
           fs::is_regular_file(prevPath(paths.meta), ec);
}

namespace {

bool
readMetaFile(const std::string &path, CampaignMeta &out,
             std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    return readMeta(is, out, error);
}

/**
 * Locate + validate one binary artifact of generation @p gen: the
 * payload is accepted from @p path or @p path.prev — whichever
 * carries a valid integrity trailer with a matching generation.
 * (During a save, every artifact of the newest complete generation
 * is at exactly one of the two names; renames are atomic.)
 */
bool
readGenArtifact(const std::string &path, uint64_t gen,
                std::string &payload, bool &from_prev,
                std::string *why)
{
    std::string primary_why;
    for (int attempt = 0; attempt < 2; ++attempt) {
        const std::string candidate =
            attempt == 0 ? path : prevPath(path);
        std::string file, err;
        if (readWholeFile(candidate, file, &err)) {
            uint64_t got = 0;
            std::string body;
            if (splitTrailer(file, body, got, &err)) {
                if (got == gen) {
                    payload = std::move(body);
                    from_prev = attempt == 1;
                    return true;
                }
                err = "trailer generation " + std::to_string(got) +
                      ", wanted " + std::to_string(gen);
            }
        }
        if (attempt == 0)
            primary_why = path + ": " + err;
    }
    if (why)
        *why = primary_why;
    return false;
}

struct MetaCandidate
{
    CampaignMeta meta;
    bool from_prev = false;
};

/** Parseable meta records, newest generation first: meta.json (the
 *  newer generation whenever both exist), then meta.json.prev. */
std::vector<MetaCandidate>
metaCandidates(const CampaignDirPaths &paths, std::string &why)
{
    std::vector<MetaCandidate> out;
    std::string err;
    MetaCandidate cand;
    if (readMetaFile(paths.meta, cand.meta, &err)) {
        out.push_back(cand);
    } else {
        why = err;
    }
    MetaCandidate prev;
    prev.from_prev = true;
    if (readMetaFile(prevPath(paths.meta), prev.meta, &err)) {
        out.push_back(prev);
    } else if (out.empty()) {
        why += why.empty() ? err : ("; " + err);
    }
    return out;
}

/**
 * Try to materialize one complete generation: the candidate meta's
 * snapshot (and corpus, when @p corpus is non-null) with validating
 * trailers. A *torn* artifact fails the candidate (the caller falls
 * back to the next one); an artifact whose CRC validates but whose
 * payload does not parse is corruption beyond the tearing model and
 * fails hard via @p hard_error.
 */
bool
loadGeneration(const CampaignDirPaths &paths,
               const MetaCandidate &cand, CorpusFile *corpus,
               CampaignCheckpoint &checkpoint, bool &used_prev,
               std::string *why, std::string *hard_error)
{
    const uint64_t gen = cand.meta.generation;
    used_prev = cand.from_prev;

    bool prev = false;
    std::string snap_payload;
    if (!readGenArtifact(paths.snapshot, gen, snap_payload, prev, why))
        return false;
    used_prev |= prev;
    std::istringstream snap_in(snap_payload);
    std::string sub;
    if (!loadCheckpoint(snap_in, checkpoint, &sub)) {
        // CRC-valid but unparseable: real corruption, not a torn
        // save — do not mask it behind a stale fallback.
        if (hard_error)
            *hard_error = paths.snapshot + ": " + sub;
        return false;
    }

    if (corpus != nullptr) {
        std::string corpus_payload;
        if (!readGenArtifact(paths.corpus, gen, corpus_payload, prev,
                             why))
            return false;
        used_prev |= prev;
        std::istringstream corpus_in(corpus_payload);
        if (!SharedCorpus::loadFrom(corpus_in, *corpus, &sub)) {
            if (hard_error)
                *hard_error = paths.corpus + ": " + sub;
            return false;
        }
    }
    return true;
}

bool
loadDirImpl(const std::string &dir, CampaignMeta &meta,
            CorpusFile *corpus, CampaignCheckpoint &checkpoint,
            std::string *error, std::string *note)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    const CampaignDirPaths paths = campaignDirPaths(dir);

    std::string meta_why;
    const std::vector<MetaCandidate> candidates =
        metaCandidates(paths, meta_why);
    if (candidates.empty())
        return fail("no loadable campaign meta in " + dir + " (" +
                    meta_why + ")");

    std::string whys;
    for (const MetaCandidate &cand : candidates) {
        bool used_prev = false;
        std::string why, hard_error;
        CampaignCheckpoint cp;
        CorpusFile cf;
        if (loadGeneration(paths, cand, corpus ? &cf : nullptr, cp,
                           used_prev, &why, &hard_error)) {
            meta = cand.meta;
            checkpoint = std::move(cp);
            if (corpus)
                *corpus = std::move(cf);
            if (note && used_prev) {
                *note = "recovered save generation " +
                        std::to_string(cand.meta.generation) +
                        " from retained .prev artifacts (the latest "
                        "save was torn or interrupted)";
            }
            return true;
        }
        if (!hard_error.empty())
            return fail(hard_error);
        if (!why.empty()) {
            whys += whys.empty() ? "" : "; ";
            whys += "generation " +
                    std::to_string(cand.meta.generation) + ": " +
                    why;
        }
    }
    return fail("no complete save generation in " + dir + " (" +
                whys + ")");
}

/** Generation recorded by a binary artifact's trailer. */
bool
binaryArtifactGeneration(const std::string &path, uint64_t &gen)
{
    std::string file, payload;
    if (!readWholeFile(path, file, nullptr))
        return false;
    return splitTrailer(file, payload, gen, nullptr);
}

/** Generation recorded by a JSONL log's final trailer record. */
bool
logTrailerGeneration(const std::string &path, uint64_t &gen)
{
    std::string file;
    if (!readWholeFile(path, file, nullptr))
        return false;
    const size_t end = file.find_last_not_of('\n');
    if (end == std::string::npos)
        return false;
    size_t start = file.rfind('\n', end);
    start = start == std::string::npos ? 0 : start + 1;
    report::JsonObject obj;
    if (!report::parseFlatJsonObject(
            file.substr(start, end - start + 1), obj, nullptr)) {
        return false;
    }
    std::string type, field_error;
    report::FieldReader fields(obj, field_error);
    fields.read("type", type);
    fields.read("generation", gen);
    return fields.ok() && type == "trailer";
}

} // namespace

bool
loadCampaignSnapshot(const std::string &dir, CampaignMeta &meta,
                     CampaignCheckpoint &checkpoint,
                     std::string *error, std::string *note)
{
    return loadDirImpl(dir, meta, nullptr, checkpoint, error, note);
}

bool
loadCampaignDir(const std::string &dir, LoadedCampaignDir &out,
                std::string *error, std::string *note)
{
    return loadDirImpl(dir, out.meta, &out.corpus, out.checkpoint,
                       error, note);
}

bool
saveCampaignDir(const std::string &dir,
                CampaignOrchestrator &orchestrator,
                const CampaignOptions &options, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return fail("cannot create campaign directory " + dir +
                    ": " + ec.message());
    sweepCampaignDir(dir);
    const CampaignDirPaths paths = campaignDirPaths(dir);

    // Establish the previous complete generation and rotate it to
    // .prev. Only a generation vouched for by a parseable meta is
    // rotated: debris of a failed save must never clobber the
    // retained good generation.
    uint64_t old_gen = 0;
    CampaignMeta saved_meta;
    const std::string artifacts[] = {paths.log, paths.corpus,
                                     paths.snapshot};
    if (readMetaFile(paths.meta, saved_meta, nullptr)) {
        old_gen = saved_meta.generation;
        // meta.json present and valid: the primary set is complete.
        // Artifacts first, meta last, so a crash mid-rotation still
        // leaves meta.json vouching for a set the loader finds at
        // {path | path.prev}.
        for (const std::string &path : artifacts) {
            if (!fs::exists(path, ec))
                continue;
            fs::rename(path, prevPath(path), ec);
            if (ec)
                return fail("cannot rotate " + path + ": " +
                            ec.message());
        }
        fs::rename(paths.meta, prevPath(paths.meta), ec);
        if (ec)
            return fail("cannot rotate " + paths.meta + ": " +
                        ec.message());
    } else if (CampaignMeta prev_meta; readMetaFile(
                   prevPath(paths.meta), prev_meta, nullptr)) {
        // A prior save died mid-flight: meta.json is gone or torn
        // but .prev still vouches for old_gen. Finish any
        // interrupted rotation — artifacts of that generation still
        // at the primary name move aside; newer-generation debris is
        // left to be overwritten.
        old_gen = prev_meta.generation;
        fs::remove(paths.meta, ec); // torn marker, if any
        for (const std::string &path : artifacts) {
            if (!fs::exists(path, ec))
                continue;
            // An artifact belongs to old_gen only when its trailer
            // names that generation.
            uint64_t gen = 0;
            const bool tagged =
                path == paths.log ? logTrailerGeneration(path, gen)
                                  : binaryArtifactGeneration(path,
                                                             gen);
            if (!tagged || gen != old_gen)
                continue;
            fs::rename(path, prevPath(path), ec);
            if (ec)
                return fail("cannot rotate " + path + ": " +
                            ec.message());
        }
    }
    const uint64_t new_gen = old_gen + 1;

    // Serialize everything to memory first, so a failure here leaves
    // the directory no worse than the rotation did — .prev still
    // holds the last complete generation.
    std::ostringstream corpus_os;
    if (!orchestrator.corpus().saveTo(corpus_os,
                                      options.master_seed))
        return fail("corpus serialization failed");
    std::ostringstream snap_os;
    if (!saveCheckpoint(snap_os, orchestrator.makeCheckpoint()))
        return fail("checkpoint serialization failed");
    std::ostringstream log_os;
    orchestrator.writeJsonlWithHeartbeats(log_os);
    std::string log_payload = log_os.str();
    {
        // The log stays line-oriented text; its integrity trailer is
        // a final JSONL record whose CRC covers every preceding byte.
        const size_t bytes = log_payload.size();
        const uint32_t crc = crc32(log_payload.data(), bytes);
        log_payload += "{\"type\":\"trailer\",\"generation\":" +
                       std::to_string(new_gen) + ",\"bytes\":" +
                       std::to_string(bytes) + ",\"crc32\":" +
                       std::to_string(crc) + "}\n";
    }

    std::string sub;
    if (!atomicWriteFile(paths.corpus,
                         withTrailer(corpus_os.str(), new_gen),
                         &sub))
        return fail(sub);
    if (!atomicWriteFile(paths.snapshot,
                         withTrailer(snap_os.str(), new_gen), &sub))
        return fail(sub);
    if (!atomicWriteFile(paths.log, log_payload, &sub))
        return fail(sub);

    // The quarantine ledger is append-only and spans generations;
    // only records not yet persisted are appended (a failed append
    // may be retried by the next save — the ledger tolerates the
    // resulting duplicates, never missing records).
    const std::vector<QuarantineRecord> &qrecords =
        orchestrator.quarantineRecords();
    const size_t qdone = orchestrator.quarantinePersisted();
    if (qdone < qrecords.size()) {
        const std::vector<QuarantineRecord> fresh(
            qrecords.begin() + static_cast<ptrdiff_t>(qdone),
            qrecords.end());
        if (!appendQuarantine(paths.quarantine, fresh, &sub))
            return fail(sub);
        orchestrator.noteQuarantinePersisted(qrecords.size());
    }

    // meta.json last: its generation field is the completion marker
    // that vouches for the whole set just written.
    CampaignMeta meta = metaFromOptions(options);
    meta.generation = new_gen;
    std::ostringstream meta_os;
    writeMeta(meta_os, meta);
    if (!atomicWriteFile(paths.meta, meta_os.str(), &sub))
        return fail(sub);
    obs::counterAdd(obs::Ctr::CheckpointGenerations);
    return true;
}

} // namespace dejavuzz::campaign
