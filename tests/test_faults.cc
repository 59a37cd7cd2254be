/**
 * @file
 * Tests of the fault-tolerant campaign runtime: the deterministic
 * failpoint registry (--inject-faults), the CRC integrity trailer
 * and atomic-write failpoint semantics, torn-generation fallback in
 * the campaign directory, the quarantine ledger, the headline
 * guarantee — a campaign that retries injected batch failures stays
 * bit-identical to the same campaign with no faults armed — and a
 * seeded mutation suite over every text artifact a campaign writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_dir.hh"
#include "campaign/faults.hh"
#include "campaign/io_util.hh"
#include "campaign/orchestrator.hh"
#include "campaign/quarantine.hh"
#include "obs/telemetry.hh"
#include "report/campaign_log.hh"
#include "report/triage_log.hh"
#include "triage/poc.hh"
#include "triage/triage.hh"
#include "uarch/config.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;
using campaign::CampaignStats;
using campaign::Fault;
using campaign::QuarantineRecord;

/** Failpoints are process-wide: every test disarms on the way out so
 *  a failure cannot leak an armed registry into later suites. */
class FaultsTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        campaign::disarmFaults();
    }
};

CampaignOptions
smallCampaign(unsigned workers, uint64_t iters)
{
    CampaignOptions options;
    options.workers = workers;
    options.master_seed = 7;
    options.total_iterations = iters;
    options.epoch_iterations = 125;
    options.base_config = uarch::smallBoomConfig();
    return options;
}

/** Scratch directory, removed on scope exit. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("dvz_faults_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(counter()++)))
                   .string();
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static unsigned &counter()
    {
        static unsigned n = 0;
        return n;
    }
};

// --- Spec parsing -------------------------------------------------------

TEST_F(FaultsTest, SpecParsesAndDisarms)
{
    std::string error;
    EXPECT_TRUE(campaign::armFaults(
        "seed=9,batch-throw=0.25,enospc=1:2", &error))
        << error;
    EXPECT_TRUE(campaign::faultsArmed());
    EXPECT_TRUE(campaign::armFaults("", &error)) << error;
    EXPECT_FALSE(campaign::faultsArmed());
    EXPECT_FALSE(campaign::shouldFail(Fault::BatchThrow));
}

TEST_F(FaultsTest, SpecRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(campaign::armFaults("bogus-kind=1", &error));
    EXPECT_NE(error.find("unknown failpoint"), std::string::npos);
    EXPECT_FALSE(campaign::armFaults("batch-throw", &error));
    EXPECT_FALSE(campaign::armFaults("batch-throw=nope", &error));
    EXPECT_FALSE(campaign::armFaults("seed=-3,enospc=1", &error));
    EXPECT_FALSE(campaign::armFaults("enospc=1:1.5", &error));
    // Seeds and caps are unsigned decimal integers, probabilities
    // finite: nothing goes through a double or a base prefix.
    for (const char *spec :
         {"seed=0x10,enospc=1", "seed=inf,enospc=1", "seed=1e30,enospc=1",
          "seed=1.0,enospc=1", "seed=18446744073709551616,enospc=1",
          "enospc=1:1e3", "enospc=1:-1", "enospc=1:0x2",
          "batch-throw=nan", "batch-throw=inf", "batch-throw=0x1p-1",
          "batch-throw= 0.5"}) {
        error.clear();
        EXPECT_FALSE(campaign::armFaults(spec, &error)) << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
    // A failed parse must leave the registry disarmed.
    EXPECT_FALSE(campaign::faultsArmed());
    EXPECT_FALSE(campaign::shouldFail(Fault::Enospc));
}

TEST_F(FaultsTest, FiringSequenceIsSeededAndCapped)
{
    const std::string spec = "seed=42,batch-throw=0.5";
    std::vector<bool> first, second;
    ASSERT_TRUE(campaign::armFaults(spec));
    for (int i = 0; i < 64; ++i)
        first.push_back(campaign::shouldFail(Fault::BatchThrow));
    ASSERT_TRUE(campaign::armFaults(spec));
    for (int i = 0; i < 64; ++i)
        second.push_back(campaign::shouldFail(Fault::BatchThrow));
    EXPECT_EQ(first, second);
    // A different seed rolls a different sequence (with 64 draws at
    // p=0.5 a collision is a 2^-64 event, i.e. a real bug).
    ASSERT_TRUE(campaign::armFaults("seed=43,batch-throw=0.5"));
    std::vector<bool> other;
    for (int i = 0; i < 64; ++i)
        other.push_back(campaign::shouldFail(Fault::BatchThrow));
    EXPECT_NE(first, other);

    // Seeds keep all 64 bits: 2^53 + 1 is not rounded onto 2^53.
    auto sequence = [](const std::string &seed_spec) {
        EXPECT_TRUE(campaign::armFaults(seed_spec + ",batch-throw=0.5"));
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(campaign::shouldFail(Fault::BatchThrow));
        return fired;
    };
    EXPECT_NE(sequence("seed=9007199254740993"),
              sequence("seed=9007199254740992"));

    ASSERT_TRUE(campaign::armFaults("seed=1,enospc=1:3"));
    unsigned fired = 0;
    for (int i = 0; i < 32; ++i)
        fired += campaign::shouldFail(Fault::Enospc) ? 1 : 0;
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(campaign::faultsFired(), 3u);
}

// --- Integrity trailer --------------------------------------------------

TEST_F(FaultsTest, TrailerRoundTripsAndCatchesCorruption)
{
    const std::string payload = "campaign artifact bytes\x00\x01\x02";
    const std::string file = campaign::withTrailer(payload, 17);
    ASSERT_EQ(file.size(), payload.size() + campaign::kTrailerBytes);

    std::string out;
    uint64_t gen = 0;
    std::string error;
    ASSERT_TRUE(campaign::splitTrailer(file, out, gen, &error))
        << error;
    EXPECT_EQ(out, payload);
    EXPECT_EQ(gen, 17u);

    // One flipped payload bit must fail the CRC.
    std::string flipped = file;
    flipped[3] = static_cast<char>(flipped[3] ^ 0x10);
    EXPECT_FALSE(
        campaign::splitTrailer(flipped, out, gen, &error));
    EXPECT_NE(error.find("CRC"), std::string::npos);

    // Truncation anywhere must fail (payload-length mismatch or a
    // file shorter than the trailer itself).
    EXPECT_FALSE(campaign::splitTrailer(
        file.substr(0, file.size() - 1), out, gen, &error));
    EXPECT_FALSE(campaign::splitTrailer(
        file.substr(0, campaign::kTrailerBytes - 1), out, gen,
        &error));

    // A wrong magic is not a trailer at all.
    std::string bad_magic = file;
    bad_magic[payload.size()] ^= 0x7f;
    EXPECT_FALSE(
        campaign::splitTrailer(bad_magic, out, gen, &error));
}

TEST_F(FaultsTest, AtomicWriteFailpointSemantics)
{
    TempDir dir;
    const std::string path = dir.path + "/artifact.bin";
    const std::string data =
        campaign::withTrailer(std::string(4096, 'x'), 1);
    std::string error;

    // enospc: the write fails loudly and leaves no debris.
    ASSERT_TRUE(campaign::armFaults("seed=1,enospc=1:1"));
    EXPECT_FALSE(campaign::atomicWriteFile(path, data, &error));
    EXPECT_NE(error.find("No space left"), std::string::npos);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // short-write: reports success but the target is truncated —
    // exactly what the CRC trailer exists to catch.
    ASSERT_TRUE(campaign::armFaults("seed=1,short-write=1:1"));
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    std::string file;
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_LT(file.size(), data.size());
    std::string payload;
    uint64_t gen = 0;
    EXPECT_FALSE(
        campaign::splitTrailer(file, payload, gen, nullptr));

    // torn-rename: ditto, via a truncated rename target.
    ASSERT_TRUE(campaign::armFaults("seed=1,torn-rename=1:1"));
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_LT(file.size(), data.size());
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // Disarmed: the write is whole and the trailer validates.
    campaign::disarmFaults();
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_TRUE(campaign::splitTrailer(file, payload, gen, &error))
        << error;
    EXPECT_EQ(gen, 1u);
}

// --- Torn-generation fallback -------------------------------------------

TEST_F(FaultsTest, LoaderFallsBackToPreviousGeneration)
{
    TempDir dir;
    CampaignOptions options = smallCampaign(2, 500);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();

    // Two complete generations, then tear the latest corpus.
    std::string error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir.path, orchestrator,
                                          options, &error))
        << error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir.path, orchestrator,
                                          options, &error))
        << error;
    const auto paths = campaign::campaignDirPaths(dir.path);
    ASSERT_TRUE(fs::exists(campaign::prevPath(paths.meta)));
    fs::resize_file(paths.corpus, fs::file_size(paths.corpus) / 2);

    campaign::LoadedCampaignDir loaded;
    std::string note;
    ASSERT_TRUE(campaign::loadCampaignDir(dir.path, loaded, &error,
                                          &note))
        << error;
    EXPECT_NE(note.find("generation"), std::string::npos) << note;
    EXPECT_EQ(loaded.meta.master_seed, options.master_seed);
    EXPECT_FALSE(loaded.corpus.entries.empty());

    // With both generations torn there is nothing left to trust.
    fs::resize_file(campaign::prevPath(paths.corpus), 8);
    EXPECT_FALSE(
        campaign::loadCampaignDir(dir.path, loaded, &error));
    EXPECT_NE(error.find("no complete save generation"),
              std::string::npos)
        << error;
}

// --- Quarantine ledger --------------------------------------------------

TEST_F(FaultsTest, QuarantineRoundTripsAndToleratesTornTail)
{
    TempDir dir;
    const std::string path = dir.path + "/quarantine.jsonl";

    std::vector<QuarantineRecord> records(2);
    records[0].worker = 1;
    records[0].batch = 42;
    records[0].attempts = 3;
    records[0].reason = "batch-deadline";
    records[0].tc.seed.id = 42;
    records[0].tc.seed.entropy = 0xdeadbeefcafef00dULL;
    records[1].worker = 0;
    records[1].batch = 7;
    records[1].attempts = 4;
    records[1].reason = "batch-throw: boom \"quoted\"";
    records[1].tc.seed.id = 43;
    records[1].tc.seed.entropy = 0x0123456789abcdefULL;

    std::string error;
    ASSERT_TRUE(campaign::appendQuarantine(path, records, &error))
        << error;

    std::vector<QuarantineRecord> loaded;
    std::string torn_note;
    ASSERT_TRUE(campaign::loadQuarantineFile(path, loaded, &error,
                                             &torn_note))
        << error;
    EXPECT_TRUE(torn_note.empty()) << torn_note;
    ASSERT_EQ(loaded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(loaded[i].worker, records[i].worker);
        EXPECT_EQ(loaded[i].batch, records[i].batch);
        EXPECT_EQ(loaded[i].attempts, records[i].attempts);
        EXPECT_EQ(loaded[i].reason, records[i].reason);
        EXPECT_EQ(loaded[i].tc.seed.id, records[i].tc.seed.id);
        EXPECT_EQ(loaded[i].tc.seed.entropy,
                  records[i].tc.seed.entropy);
    }

    // A crash mid-append tears only the final line; the loader keeps
    // everything before it and reports the drop.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "{\"type\":\"quarantine\",\"worker\":2,\"ba";
    }
    loaded.clear();
    ASSERT_TRUE(campaign::loadQuarantineFile(path, loaded, &error,
                                             &torn_note))
        << error;
    EXPECT_EQ(loaded.size(), records.size());
    EXPECT_FALSE(torn_note.empty());

    // Corruption anywhere *else* is not crash debris: strict fail.
    {
        std::ofstream os(path, std::ios::trunc | std::ios::binary);
        os << "{\"type\":\"quarantine\",\"worker\":2,\"ba\n";
        std::ostringstream rec;
        campaign::writeQuarantineRecord(rec, records[0]);
        os << rec.str();
    }
    EXPECT_FALSE(
        campaign::loadQuarantineFile(path, loaded, &error));

    // A field value its type cannot hold is corruption too, not a
    // silently narrowed worker id (and not torn debris: a valid
    // record follows it).
    {
        std::ostringstream rec;
        campaign::writeQuarantineRecord(rec, records[0]);
        std::string wide = rec.str();
        const std::string worker = "\"worker\":1,";
        ASSERT_NE(wide.find(worker), std::string::npos);
        wide.replace(wide.find(worker), worker.size(),
                     "\"worker\":4294967297,");
        std::ofstream os(path, std::ios::trunc | std::ios::binary);
        os << rec.str() << wide << rec.str();
    }
    error.clear();
    EXPECT_FALSE(
        campaign::loadQuarantineFile(path, loaded, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("worker"), std::string::npos) << error;

    // A missing ledger is simply empty.
    loaded.clear();
    EXPECT_TRUE(campaign::loadQuarantineFile(
        dir.path + "/absent.jsonl", loaded, &error));
    EXPECT_TRUE(loaded.empty());
}

// --- Retry determinism (the headline guarantee) -------------------------

TEST_F(FaultsTest, RetriedBatchesStayBitIdentical)
{
    // Retries re-execute the identical batch spec, so a campaign
    // whose batches are made to crash (and then retried) must land
    // on exactly the ledger and corpus of an undisturbed run.
    campaign::disarmFaults();
    CampaignOptions options = smallCampaign(2, 1500);
    options.batch_retries = 5;
    CampaignOrchestrator baseline(options);
    CampaignStats clean = baseline.run();
    ASSERT_GT(baseline.ledger().distinct(), 0u);

    ASSERT_TRUE(campaign::armFaults("seed=7,batch-throw=1:3"));
    CampaignOrchestrator faulted(options);
    CampaignStats stats = faulted.run();
    campaign::disarmFaults();

    EXPECT_EQ(stats.batch_retries, 3u);
    EXPECT_EQ(stats.batches_failed, 0u);
    EXPECT_EQ(stats.iterations, clean.iterations);
    EXPECT_EQ(stats.coverage_points, clean.coverage_points);
    EXPECT_EQ(stats.steals, clean.steals);
    EXPECT_EQ(stats.seeds_imported, clean.seeds_imported);

    auto ea = baseline.ledger().entries();
    auto eb = faulted.ledger().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].report.key(), eb[i].report.key());
        EXPECT_EQ(ea[i].worker, eb[i].worker);
        EXPECT_EQ(ea[i].epoch, eb[i].epoch);
        EXPECT_EQ(ea[i].hits, eb[i].hits);
        EXPECT_EQ(ea[i].report.iteration, eb[i].report.iteration);
    }
    auto ka = baseline.corpus().snapshotKeys();
    auto kb = faulted.corpus().snapshotKeys();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].gain, kb[i].gain);
        EXPECT_EQ(ka[i].worker, kb[i].worker);
        EXPECT_EQ(ka[i].seq, kb[i].seq);
        EXPECT_EQ(ka[i].config, kb[i].config);
    }
}

TEST_F(FaultsTest, AlwaysHangingBatchesDegradeGracefully)
{
    // Every attempt of every batch "hangs": retries exhaust, the
    // kind's failure streak trips the fleet-wide disable, and the
    // campaign ends early instead of spinning — with the failure
    // fully accounted (no phantom iterations folded in).
    CampaignOptions options = smallCampaign(1, 4000);
    options.batch_retries = 1;
    options.kind_disable_failures = 3;
    ASSERT_TRUE(campaign::armFaults("seed=3,batch-hang=1"));
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    campaign::disarmFaults();

    EXPECT_EQ(stats.iterations, 0u);
    EXPECT_GT(stats.batches_failed, 0u);
    EXPECT_GT(stats.batch_deadline_kills, 0u);
    EXPECT_EQ(stats.kinds_disabled, 1u);
    EXPECT_EQ(orchestrator.ledger().distinct(), 0u);
    // The epoch curve must agree with the rollups it validates
    // against: skipped iterations never appear as progress.
    for (const auto &sample : stats.epoch_curve)
        EXPECT_EQ(sample.iterations, 0u);
}

// --- Text ingest mutation suite ----------------------------------------

/** One text artifact of a real campaign and the loader that reads it
 *  back. Numeric fields in neither set are documented as uint64. */
struct TextSurface
{
    std::string name;
    std::string text;
    std::set<std::string> u32_fields;
    std::set<std::string> float_fields;
    std::function<bool(std::istream &, std::string &)> load;
};

/** The five text surfaces, taken from one small campaign. */
std::vector<TextSurface>
textSurfaces()
{
    TempDir dir;
    CampaignOptions options = smallCampaign(1, 400);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    const std::vector<campaign::BugRecord> ledger =
        orchestrator.ledger().entries();
    EXPECT_GE(ledger.size(), 2u);
    std::vector<TextSurface> surfaces;
    std::string error;
    EXPECT_TRUE(campaign::saveCampaignDir(dir.path, orchestrator,
                                          options, &error))
        << error;

    std::string meta;
    EXPECT_TRUE(campaign::readWholeFile(
        campaign::campaignDirPaths(dir.path).meta, meta, &error));
    surfaces.push_back(
        {"meta.json", meta,
         {"meta_version", "corpus_version", "snapshot_version",
          "templates"},
         {},
         [](std::istream &is, std::string &why) {
             campaign::CampaignMeta out;
             return campaign::readMeta(is, out, &why);
         }});

    // The --out form of the log: a campaign-dir copy carries a CRC
    // trailer that rejects every mutation before any field is read.
    std::ostringstream log;
    orchestrator.writeJsonl(log);
    surfaces.push_back(
        {"campaign.jsonl", log.str(),
         {"crc32"},
         {"active_seconds", "wall_seconds", "iters_per_sec"},
         [](std::istream &is, std::string &why) {
             report::CampaignLog out;
             return report::parseCampaignLog(is, "campaign.jsonl", out,
                                             &why);
         }});

    triage::FuzzerCache cache;
    const size_t triaged_bugs = std::min<size_t>(2, ledger.size());
    const triage::TriageResult triaged = triage::triageLedger(
        {ledger.begin(), ledger.begin() + triaged_bugs}, {}, cache);
    EXPECT_FALSE(triaged.pocs.empty());
    std::ostringstream triage_log;
    triage::writeTriageJsonl(triage_log, triaged);
    surfaces.push_back({"triage.jsonl", triage_log.str(), {}, {},
                        [](std::istream &is, std::string &why) {
                            report::TriageLog out;
                            return report::parseTriageLog(is, out,
                                                          &why);
                        }});

    std::ostringstream quarantine;
    for (size_t i = 0; i < 3 && i < ledger.size(); ++i) {
        QuarantineRecord rec;
        rec.worker = static_cast<unsigned>(i);
        rec.batch = 10 + i;
        rec.attempts = 2;
        rec.reason = "batch-deadline";
        rec.tc = ledger[i].repro;
        campaign::writeQuarantineRecord(quarantine, rec);
    }
    surfaces.push_back(
        {"quarantine.jsonl", quarantine.str(),
         {"worker"},
         {},
         [](std::istream &is, std::string &why) {
             // A dropped torn final line is the loader's rejection of
             // that line, so it counts as one here.
             std::vector<QuarantineRecord> out;
             std::string torn;
             return campaign::loadQuarantine(is, out, &why, &torn) &&
                    (why = torn).empty();
         }});

    std::ostringstream poc;
    if (!triaged.pocs.empty())
        triage::writePocFile(poc, triaged.pocs.front().artifact);
    surfaces.push_back({"poc.dvzpoc", poc.str(), {}, {},
                        [](std::istream &is, std::string &why) {
                            triage::PocArtifact out;
                            return triage::readPocFile(is, out, &why);
                        }});
    return surfaces;
}

/** A numeric token of a text artifact and the JSON key it is the
 *  value of (empty for a digit run outside JSON). */
struct NumericToken
{
    size_t pos, len;
    std::string field;
};

/** Every JSON number value in @p text, or (DVZPOC files have no
 *  numeric fields) every digit run. */
std::vector<NumericToken>
numericTokens(const std::string &text, bool json)
{
    const char *const digits = "0123456789";
    std::vector<NumericToken> tokens;
    // Records the token at @p pos and returns where it ends.
    auto take = [&](size_t pos, std::string field) {
        size_t end =
            text.find_first_not_of(json ? "0123456789.eE+-" : digits, pos);
        if (end == std::string::npos)
            end = text.size();
        tokens.push_back({pos, end - pos, std::move(field)});
        return end;
    };
    if (!json) {
        for (size_t pos = text.find_first_of(digits);
             pos != std::string::npos;
             pos = text.find_first_of(digits, take(pos, ""))) {
        }
        return tokens;
    }
    for (size_t at = text.find("\":"); at != std::string::npos;
         at = text.find("\":", at + 2)) {
        const char first = at + 2 < text.size() ? text[at + 2] : '\0';
        if (first == '-' || (first >= '0' && first <= '9')) {
            const size_t key = text.rfind('"', at - 1) + 1;
            take(at + 2, text.substr(key, at - key));
        }
    }
    return tokens;
}

/** Whether @p number is a value the documented type of @p field in
 *  @p surface can hold. An empty field is free text (no type). */
bool
fieldHolds(const TextSurface &surface, const std::string &field,
           const std::string &number)
{
    if (field.empty())
        return true;
    if (number == "nan" || number == "-1")
        return false; // not JSON / below every documented range
    if (surface.float_fields.count(field))
        return true;
    if (number == "4294967297")
        return !surface.u32_fields.count(field);
    return false; // 1.5, 1e3 and 2^64 fit no integer field
}

TEST(TextIngest, MutatedArtifactsLoadOrFailCleanly)
{
    const char *const kNumbers[] = {"-1", "1.5", "1e3", "4294967297",
                                    "18446744073709551616", "nan"};
    uint64_t seed = 0x7e47;
    for (const TextSurface &surface : textSurfaces()) {
        SCOPED_TRACE(surface.name);
        std::string error;
        {
            std::istringstream pristine(surface.text);
            ASSERT_TRUE(surface.load(pristine, error)) << error;
        }
        const std::vector<NumericToken> tokens = numericTokens(
            surface.text,
            surface.name.find("json") != std::string::npos);
        ASSERT_FALSE(tokens.empty());

        Rng rng(seed++);
        unsigned rejected = 0;
        for (int trial = 0; trial < 300; ++trial) {
            std::string text = surface.text;
            std::string field, number;
            switch (rng.below(4)) {
              case 0: { // bit flip
                const size_t pos = rng.below(text.size());
                text[pos] = static_cast<char>(
                    static_cast<uint8_t>(text[pos]) ^
                    (uint8_t{1} << rng.below(8)));
                break;
              }
              case 1: // truncation
                text.resize(rng.below(text.size()));
                break;
              case 2: { // duplicated line
                const size_t at = rng.below(text.size());
                const size_t begin = text.rfind('\n', at);
                const size_t start =
                    begin == std::string::npos ? 0 : begin + 1;
                const size_t stop = text.find('\n', at);
                const size_t len = stop == std::string::npos
                                       ? text.size() - start
                                       : stop + 1 - start;
                text.insert(start, text.substr(start, len));
                break;
              }
              default: { // one numeric token replaced
                const NumericToken &token =
                    tokens[rng.below(tokens.size())];
                field = token.field;
                number = kNumbers[rng.below(std::size(kNumbers))];
                text.replace(token.pos, token.len, number);
                break;
              }
            }
            std::istringstream is(text);
            error.clear();
            if (!surface.load(is, error)) {
                ++rejected;
                EXPECT_FALSE(error.empty())
                    << "trial " << trial << ": rejection without a "
                    << "diagnostic";
            } else if (!fieldHolds(surface, field, number)) {
                ADD_FAILURE() << "trial " << trial << ": field \""
                              << field << "\" accepted " << number;
            }
        }
        EXPECT_GT(rejected, 0u);
    }
}

} // namespace
} // namespace dejavuzz
