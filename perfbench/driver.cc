/**
 * @file
 * Reference benchmark driver: runs one workload against the
 * library's public API and prints its metrics as one JSON line.
 *
 *   dvz_perfbench --workload fuzz-solo|fleet-ckpt|triage-replay
 *                 --seed N --seconds S --trace 0|1 --work DIR [--quick]
 *   dvz_perfbench --gen-input --seed N --work DIR [--quick]
 *
 * A run repeats one fixed-input *pass* of the workload until
 * --seconds have elapsed (at least two passes), so every pass must
 * produce the same output digest. End-to-end timings are divided by
 * the host's slowdown, measured by a fixed probe kernel right before
 * and after each timed region; throughputs are then the run's best
 * sample (replay per record). setup_s and the per-layer timings are
 * medians and are not normalised.
 * Counts come from the first pass and repeat exactly.
 *
 * --trace 1 alternates untraced and traced passes, reports the
 * per-layer metrics from the traced ones (the library's span capture
 * plus benchmark-side spans around each public call), adds a
 * component pass over the workload's banked test cases, and prints
 * self time and unattributed residual per parent span on stderr.
 *
 * --gen-input writes the triage-replay input campaign directory
 * (not timed). perfbench/run.py builds this program and drives it.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign_dir.hh"
#include "campaign/io_util.hh"
#include "campaign/orchestrator.hh"
#include "campaign/snapshot.hh"
#include "harness/dualsim.hh"
#include "obs/telemetry.hh"
#include "replay/replay.hh"
#include "report/campaign_log.hh"
#include "report/report.hh"
#include "report/triage_log.hh"
#include "swapmem/packet.hh"
#include "triage/triage.hh"
#include "uarch/config.hh"
#include "util/logging.hh"

#include "measure.hh"

namespace {

namespace fs = std::filesystem;
namespace cp = dejavuzz::campaign;
namespace core = dejavuzz::core;
namespace obs = dejavuzz::obs;
namespace tr = dejavuzz::triage;
namespace rp = dejavuzz::report;
using perfbench::BenchSpan;
using perfbench::Stopwatch;

// --- workload shapes --------------------------------------------------------

enum class Workload { FuzzSolo, FleetCkpt, TriageReplay };

struct Args
{
    Workload workload = Workload::FuzzSolo;
    std::string workload_name;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    bool gen_input = false;
    std::string work;
};

/** Fixed iteration budgets; --quick shrinks them for the self-test. */
struct Budget
{
    uint64_t solo_iters;
    uint64_t fleet_iters;
    uint64_t input_iters;
    unsigned setup_reps;     ///< setup-only repetitions before the passes
    size_t component_cases;  ///< banked cases in the component pass
};

Budget
budgetFor(bool quick)
{
    if (quick)
        return {300, 400, 400, 2, 6};
    return {4000, 8000, 4000, 15, 48};
}

/** The ROADMAP reference campaign: 1 worker, replicas, SmallBOOM,
 *  same-domain template, no campaign dir. */
cp::CampaignOptions
soloOptions(uint64_t seed, const Budget &budget)
{
    cp::CampaignOptions options;
    options.workers = 1;
    options.policy = cp::ShardPolicy::Replicas;
    options.master_seed = seed;
    options.total_iterations = budget.solo_iters;
    options.base_config = dejavuzz::uarch::smallBoomConfig();
    return options;
}

/** Two workers, every attack template, a small epoch and batch, and
 *  a crash-safe save at every epoch barrier. */
cp::CampaignOptions
fleetOptions(uint64_t seed, const Budget &budget)
{
    cp::CampaignOptions options;
    options.workers = 2;
    options.policy = cp::ShardPolicy::Replicas;
    options.master_seed = seed;
    options.total_iterations = budget.fleet_iters;
    options.epoch_iterations = 50;
    options.batch_iterations = 8;
    options.fuzzer.model_mask = core::kAllModelMask;
    options.base_config = dejavuzz::uarch::smallBoomConfig();
    // Any positive interval shorter than an epoch: the hook fires at
    // every barrier, so the save count equals the epoch count.
    options.autosave_sec = 1e-9;
    return options;
}

/** The all-templates campaign whose directory triage-replay reads. */
cp::CampaignOptions
inputOptions(uint64_t seed, const Budget &budget)
{
    cp::CampaignOptions options;
    options.workers = 2;
    options.policy = cp::ShardPolicy::Replicas;
    options.master_seed = seed;
    options.total_iterations = budget.input_iters;
    options.fuzzer.model_mask = core::kAllModelMask;
    options.base_config = dejavuzz::uarch::smallBoomConfig();
    return options;
}

// --- results ----------------------------------------------------------------

/** Everything one pass measured. Timings in seconds. */
struct Pass
{
    double setup = 0.0;
    double wall = 0.0;    ///< headline region: run() or the pipeline
    double cpu = 0.0;
    /** Host slowdown around the headline region (see hostFactor). */
    double run_host = 1.0;
    uint64_t iters = 0;   ///< iterations (evaluation steps) in it
    double coverage = 0.0;
    double windows_per_kiter = 0.0;
    double training_per_window = 0.0;
    /** replayLedger throughput of every replay the pass made. */
    std::vector<double> replay_rates;
    /** Per replay: each record's replay time (BugReplay::seconds). */
    std::vector<std::vector<double>> replay_record_s;
    /** Per replay: the rest of the call (fuzzer construction,
     *  bookkeeping), i.e. its wall time minus the records' times. */
    std::vector<double> replay_rest_s;
    uint64_t replay_bugs = 0; ///< bugs in the pipeline's replay
    double pipeline_wall = 0.0; ///< the first pipeline's wall time
    /** Ledger bugs per wall second of every pipeline the pass ran. */
    std::vector<double> pipeline_rates;
    /** Per pipeline: its wall time minus its replay's. */
    std::vector<double> pipeline_rest_s;
    /** Host slowdown around each of those pipelines. */
    std::vector<double> pipeline_host;
    double disk_mb = 0.0;

    std::string digest;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Per-layer figures; filled by traced passes only. */
    std::map<std::string, double> layer;
};

/** One run's state shared by every pass. */
struct Ctx
{
    Args args;
    Budget budget;
    perfbench::SpanLog spans;
    /** Banked test cases of the last pass, for the component pass. */
    std::vector<std::pair<core::TestCase, std::string>> banked;
};

void
problem(Pass &pass, const std::string &what)
{
    pass.problems.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

/**
 * Host slowdown over a region, from the speed probes taken right
 * before and right after it: 1 on the quiet host the benchmark was
 * tuned on, 1.3 when the probe ran 30% slower. Timings are divided by
 * it (README.md, "How a run measures").
 */
double
hostFactor(double before, double after)
{
    return 0.5 * (before + after) / perfbench::kProbeReference;
}

obs::TelemetrySnapshot
obsDelta(const obs::TelemetrySnapshot &a, const obs::TelemetrySnapshot &b)
{
    obs::TelemetrySnapshot d;
    for (unsigned i = 0; i < obs::kNumCtrs; ++i)
        d.counters[i] = b.counters[i] - a.counters[i];
    for (unsigned i = 0; i < obs::kNumHists; ++i) {
        d.hists[i].count = b.hists[i].count - a.hists[i].count;
        d.hists[i].sum = b.hists[i].sum - a.hists[i].sum;
    }
    return d;
}

double
histSeconds(const obs::TelemetrySnapshot &d, obs::Hist h)
{
    return d.hist(h).sum / 1e9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One FuzzerCache entry per (registered config, variant): what the
 *  portability matrix and the shrinker replay on. */
std::unique_ptr<tr::FuzzerCache>
buildCache(const std::set<std::string> &variants)
{
    auto cache = std::make_unique<tr::FuzzerCache>();
    for (const auto &config : dejavuzz::uarch::registeredCoreConfigs())
        for (const std::string &variant : variants)
            cache->get(config.name, variant);
    return cache;
}

std::set<std::string>
ledgerVariants(const std::vector<cp::BugRecord> &ledger)
{
    std::set<std::string> variants{"full"};
    for (const cp::BugRecord &record : ledger)
        variants.insert(record.variant);
    return variants;
}

/** Bank up to component_cases test cases for the component pass:
 *  corpus entries first (at most half), then bug reproducers. */
void
bankInputs(Ctx &ctx, const std::vector<cp::CorpusEntry> &corpus,
           const std::vector<cp::BugRecord> &ledger)
{
    ctx.banked.clear();
    const size_t cap = ctx.budget.component_cases;
    for (const cp::CorpusEntry &entry : corpus) {
        if (ctx.banked.size() >= cap / 2)
            break;
        ctx.banked.emplace_back(entry.tc, entry.config);
    }
    for (const cp::BugRecord &record : ledger) {
        if (ctx.banked.size() >= cap)
            break;
        ctx.banked.emplace_back(record.repro, record.config);
    }
}

/** Simulator rows read from the library's own counters and span
 *  histograms over a traced pass. */
void
simulatorRows(const obs::TelemetrySnapshot &d, double iterations,
              std::map<std::string, double> &layer)
{
    const double sims = d.counter(obs::Ctr::Simulations);
    layer["core.phase1_s"] = histSeconds(d, obs::Hist::Phase1Ns);
    layer["core.phase2_s"] = histSeconds(d, obs::Hist::Phase2Ns);
    layer["core.phase3_s"] = histSeconds(d, obs::Hist::Phase3Ns);
    layer["core.sims_per_iter"] = ratio(sims, iterations);
    layer["ift.module_taint_s"] =
        histSeconds(d, obs::Hist::ModuleTaintNs);
    layer["ift.transitions_per_sim"] =
        ratio(d.counter(obs::Ctr::TaintTransitions), sims);
    layer["harness.rollback_s"] = histSeconds(d, obs::Hist::RollbackNs);
    layer["harness.rollbacks_per_sim"] =
        ratio(d.counter(obs::Ctr::Rollbacks), sims);
    layer["harness.redo_cycles_per_sim"] =
        ratio(d.counter(obs::Ctr::RedoCycles), sims);
    layer["harness.checkpoints_per_sim"] =
        ratio(d.counter(obs::Ctr::Checkpoints), sims);
    layer["harness.fused_lane_cycles"] =
        d.counter(obs::Ctr::FusedLaneCycles);
}

// --- post-campaign pipeline ---------------------------------------------------

/**
 * load (when @p dir is set) -> replay every ledger bug -> triage with
 * the portability matrix and, when @p pocs is set, PoC shrinking ->
 * triage.jsonl and PoC write with read-back verification -> report
 * parse, validate and render. Outputs go to @p out_dir; the digest
 * covers the replay verdicts, triage.jsonl and every PoC file.
 */
void
runPipeline(Ctx &ctx, Pass &pass, const std::string &dir,
            std::vector<cp::BugRecord> ledger, bool pocs,
            const std::string &log_path, const std::string &out_dir,
            tr::FuzzerCache &cache, perfbench::Digest &digest,
            uint64_t &coverage_points)
{
    perfbench::SpanLog &spans = ctx.spans;
    const bool first = pass.pipeline_rates.empty();
    Stopwatch sw;
    BenchSpan pipeline_span(spans, "pipeline");

    if (!dir.empty()) {
        BenchSpan span(spans, "replay.load");
        cp::CampaignMeta meta;
        cp::CampaignCheckpoint checkpoint;
        std::string error;
        if (!cp::loadCampaignSnapshot(dir, meta, checkpoint, &error)) {
            problem(pass, "loadCampaignSnapshot: " + error);
            return;
        }
        ledger = std::move(checkpoint.ledger);
        coverage_points = 0;
        for (const cp::CoverageGroupSnap &group : checkpoint.groups)
            for (const auto &module : group.modules)
                for (uint64_t word : module.words)
                    coverage_points += __builtin_popcountll(word);
    }

    dejavuzz::replay::ReplaySummary replayed;
    double replay_wall = 0.0;
    {
        BenchSpan span(spans, "replay");
        Stopwatch replay_sw;
        replayed = dejavuzz::replay::replayLedger(ledger);
        replay_wall = replay_sw.wall();
        pass.replay_rates.push_back(ratio(replayed.total(), replay_wall));
        std::vector<double> &records = pass.replay_record_s.emplace_back();
        for (const dejavuzz::replay::BugReplay &bug : replayed.bugs)
            records.push_back(bug.seconds);
        pass.replay_rest_s.push_back(
            replay_wall -
            std::accumulate(records.begin(), records.end(), 0.0));
    }
    pass.replay_bugs = replayed.total();
    pass.attempted += replayed.total();
    const size_t missed = replayed.total() - replayed.reproduced();
    pass.failed += missed;
    if (missed)
        problem(pass, std::to_string(missed) + " of " +
                          std::to_string(replayed.total()) +
                          " ledger bugs did not reproduce");

    tr::TriageResult result;
    {
        BenchSpan span(spans, "triage");
        tr::TriageOptions options;
        options.matrix = true;
        options.emit_pocs = pocs;
        result = tr::triageLedger(ledger, options, cache);
    }

    const std::string triage_path = out_dir + "/triage.jsonl";
    {
        BenchSpan span(spans, "write");
        std::ofstream os(triage_path, std::ios::binary | std::ios::trunc);
        tr::writeTriageJsonl(os, result);
        os.close();
        std::string error;
        ++pass.attempted;
        if (!os || (pocs && !tr::writePocs(out_dir, result, &error))) {
            ++pass.failed;
            problem(pass, "triage output write failed: " + error);
        }
    }

    rp::CampaignLog log;
    rp::TriageLog tlog;
    {
        BenchSpan span(spans, "report.parse");
        std::ifstream log_in(log_path, std::ios::binary);
        std::string error;
        if (!rp::parseCampaignLog(log_in, "campaign", log, &error))
            problem(pass, "parseCampaignLog: " + error);
        std::ifstream triage_in(triage_path, std::ios::binary);
        if (!rp::parseTriageLog(triage_in, tlog, &error))
            problem(pass, "parseTriageLog: " + error);
    }
    {
        BenchSpan span(spans, "report.render");
        for (const std::string &issue : rp::validateCampaignLog(log))
            problem(pass, "validateCampaignLog: " + issue);
        const std::string rendered =
            rp::renderComparison({log}, rp::ReportFormat::Markdown) +
            rp::renderTables(rp::buildTriageTables(tlog),
                             rp::ReportFormat::Markdown);
        if (rendered.empty())
            problem(pass, "report rendered empty");
    }
    const double pipeline_wall = sw.wall();
    if (first)
        pass.pipeline_wall = pipeline_wall;
    pass.pipeline_rates.push_back(ratio(ledger.size(), pipeline_wall));
    pass.pipeline_rest_s.push_back(pipeline_wall - replay_wall);

    // Digest and derived figures, outside every timed region.
    for (const dejavuzz::replay::BugReplay &bug : replayed.bugs) {
        digest.text(bug.key);
        digest.text(bug.observed);
    }
    digest.text(perfbench::slurp(triage_path));
    uint64_t pocs_bytes = 0;
    for (const tr::PocEntry &poc : result.pocs) {
        const std::string bytes = perfbench::slurp(
            out_dir + "/pocs/" + tr::pocFileName(poc.artifact.cluster));
        digest.text(bytes);
        pocs_bytes += bytes.size();
    }
    if (first)
        pass.disk_mb += (perfbench::treeBytes(triage_path) + pocs_bytes) /
                        1048576.0;

    // A verdict opened the window unless it says otherwise: "no-leak"
    // and every observed key (own or foreign) are windows.
    auto opened = [](const std::string &observed) {
        return observed != "window-not-triggered" &&
               observed != "replay-timeout" &&
               observed.rfind("unknown ", 0) != 0;
    };
    uint64_t matrix_cells = 0;
    uint64_t windowed = 0;
    double training = 0.0;
    for (size_t i = 0; i < replayed.bugs.size(); ++i) {
        if (!opened(replayed.bugs[i].observed))
            continue;
        ++windowed;
        training += ledger[i].repro.schedule.trainingOverhead();
    }
    const uint64_t replay_windows = windowed;
    for (const tr::BugPortability &row : result.matrix) {
        for (const tr::PortabilityCell &cell : row.cells) {
            ++matrix_cells;
            windowed += opened(cell.observed);
        }
    }
    uint64_t oracle_calls = 0;
    for (const tr::PocEntry &poc : result.pocs)
        oracle_calls += poc.stats.oracle_calls;
    auto &layer = pass.layer;
    layer["triage.clusters"] = result.clusters.size();
    layer["triage.oracle_calls"] = oracle_calls;
    layer["replay.reproduced_ratio"] =
        ratio(replayed.reproduced(), replayed.total());
    layer["pipeline.evaluations"] =
        replayed.total() + matrix_cells + oracle_calls;
    layer["pipeline.window_evals"] = replayed.total() + matrix_cells;
    layer["pipeline.windowed"] = windowed;
    layer["pipeline.training_per_window"] =
        ratio(training, replay_windows);
}

/**
 * Time clusterLedger, portabilityMatrix and (when the pipeline emits
 * PoCs) shrinkCase on their own, right after a traced pipeline and
 * with its fuzzers, over the ledger triageLedger saw (sorted by key,
 * as it sorts it): the pipeline calls triageLedger as one public
 * call, so its stages cannot be split inside it.
 */
void
timeTriageStages(const std::vector<cp::BugRecord> &input, bool pocs,
                 tr::FuzzerCache &cache,
                 std::map<std::string, double> &layer)
{
    std::vector<cp::BugRecord> ledger = input;
    std::sort(ledger.begin(), ledger.end(),
              [](const cp::BugRecord &a, const cp::BugRecord &b) {
                  return a.report.key() < b.report.key();
              });
    std::vector<tr::Cluster> clusters;
    {
        Stopwatch sw;
        clusters = tr::clusterLedger(ledger);
        layer["triage.cluster_ms"] = 1e3 * sw.wall();
    }
    {
        Stopwatch sw;
        tr::portabilityMatrix(ledger, cache);
        layer["triage.matrix_ms"] = 1e3 * sw.wall();
    }
    if (pocs) {
        Stopwatch sw;
        for (const tr::Cluster &cluster : clusters) {
            const cp::BugRecord &rep =
                ledger[cluster.representative_index];
            core::Fuzzer *fuzzer = cache.get(rep.config, rep.variant);
            if (fuzzer)
                tr::shrinkCase(*fuzzer, rep.repro, rep.report.key());
        }
        layer["triage.shrink_ms"] = 1e3 * sw.wall();
    }
}

// --- fuzz workloads -----------------------------------------------------------

/** Post-campaign pipelines per untraced fuzz pass (see fuzzPass). */
constexpr int kPipelineRuns = 3;

Pass
fuzzPass(Ctx &ctx, bool traced)
{
    const bool fleet = ctx.args.workload == Workload::FleetCkpt;
    Pass pass;
    perfbench::Digest digest;
    perfbench::SpanLog &spans = ctx.spans;
    const std::string dir = ctx.args.work + "/campaign";
    const std::string out_dir = ctx.args.work + "/out";
    fs::remove_all(dir);
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);

    // Setup: options + orchestrator provisioning + replay fuzzers.
    Stopwatch setup_sw;
    const cp::CampaignOptions options =
        fleet ? fleetOptions(ctx.args.seed, ctx.budget)
              : soloOptions(ctx.args.seed, ctx.budget);
    auto orchestrator =
        std::make_unique<cp::CampaignOrchestrator>(options);
    auto cache = buildCache({"full"});
    pass.setup = setup_sw.wall();

    uint64_t saves = 0;
    if (fleet) {
        cp::CampaignOrchestrator *orch = orchestrator.get();
        orchestrator->setAutosaveHook(
            [&, orch](std::string *error) {
                BenchSpan span(spans, "campaign.save");
                ++saves;
                ++pass.attempted;
                const bool ok =
                    cp::saveCampaignDir(dir, *orch, options, error);
                pass.failed += !ok;
                return ok;
            });
    }

    double probe = perfbench::hostProbe();
    obs::enableTrace(traced);
    const obs::TelemetrySnapshot before = obs::snapshot();
    cp::CampaignStats stats;
    {
        BenchSpan span(spans, "campaign.run");
        Stopwatch sw;
        stats = orchestrator->run();
        pass.wall = sw.wall();
        pass.cpu = sw.cpu();
    }
    const obs::TelemetrySnapshot d = obsDelta(before, obs::snapshot());
    obs::enableTrace(false);
    const std::vector<obs::TraceEvent> events = obs::takeTraceEvents();
    const double after_run = perfbench::hostProbe();
    pass.run_host = hostFactor(probe, after_run);
    probe = after_run;

    pass.iters = stats.iterations;
    pass.attempted += stats.batches;
    pass.failed += stats.batches_failed;
    if (stats.batches_failed)
        problem(pass, std::to_string(stats.batches_failed) +
                          " batches failed");
    if (fleet && saves != stats.epochs)
        problem(pass, "save count " + std::to_string(saves) +
                          " != epochs " + std::to_string(stats.epochs));

    uint64_t windows = 0;
    uint64_t training = 0;
    for (const cp::TriggerSummary &trigger : stats.triggers) {
        windows += trigger.windows;
        training += trigger.training_overhead;
    }
    pass.coverage = stats.coverage_points;
    pass.windows_per_kiter = ratio(1000.0 * windows, stats.iterations);
    pass.training_per_window = ratio(training, windows);

    // The campaign log: the campaign dir's (fleet) or --out's (solo).
    std::string log_path = dir + "/campaign.jsonl";
    if (!fleet) {
        log_path = out_dir + "/campaign.jsonl";
        std::ofstream os(log_path, std::ios::binary | std::ios::trunc);
        orchestrator->writeJsonl(os);
    }

    // Digest: simulated outputs only, no wall-clock fields.
    for (uint64_t v :
         {stats.iterations, stats.simulations, stats.windows_triggered,
          stats.coverage_points, stats.seeds_imported, stats.epochs,
          stats.steals, stats.corpus_size, stats.batches,
          stats.batches_failed, saves})
        digest.u64(v);
    for (const cp::TriggerSummary &trigger : stats.triggers) {
        digest.u64(trigger.windows);
        digest.u64(trigger.training_overhead);
        digest.u64(trigger.effective_overhead);
    }
    const std::vector<cp::BugRecord> ledger =
        orchestrator->ledger().entries();
    for (const cp::BugRecord &record : ledger) {
        digest.text(record.report.key());
        digest.u64(record.hits);
    }
    if (fleet) {
        const cp::CampaignDirPaths paths = cp::campaignDirPaths(dir);
        for (const std::string &path : {paths.corpus, paths.snapshot}) {
            std::string payload;
            uint64_t generation = 0;
            std::string error;
            if (!cp::splitTrailer(perfbench::slurp(path), payload,
                                  generation, &error))
                problem(pass, path + ": " + error);
            digest.text(payload);
        }
    } else {
        std::ostringstream corpus;
        orchestrator->corpus().saveTo(corpus, options.master_seed);
        digest.text(corpus.str());
        std::ostringstream snap;
        cp::saveCheckpoint(snap, orchestrator->makeCheckpoint());
        digest.text(snap.str());
    }
    pass.disk_mb = perfbench::treeBytes(fleet ? dir : log_path) /
                   1048576.0;

    // The campaign's own verification: replay, cluster, portability
    // matrix and report. PoC shrinking is triage-replay's job: its
    // cost per bug varies several-fold with the campaign's cluster
    // representatives and would swamp this pipeline's throughput.
    // Untraced passes run it kPipelineRuns times for more replay and
    // pipeline samples: one pipeline is short enough for host noise to
    // dominate a sample. Every repeat must reproduce the first one's
    // outputs exactly.
    uint64_t ignored = 0;
    perfbench::Digest outputs;
    for (int r = 0; r < (traced ? 1 : kPipelineRuns); ++r) {
        perfbench::Digest repeat;
        runPipeline(ctx, pass, fleet ? dir : "", ledger, false, log_path,
                    out_dir, *cache, r == 0 ? outputs : repeat, ignored);
        const double after = perfbench::hostProbe();
        pass.pipeline_host.push_back(hostFactor(probe, after));
        probe = after;
        if (r == 0)
            continue;
        ++pass.attempted;
        if (repeat.hex() != outputs.hex()) {
            ++pass.failed;
            problem(pass, "repeated pipeline changed its outputs");
        }
    }
    digest.text(outputs.hex());
    pass.digest = digest.hex();

    bankInputs(ctx, orchestrator->corpus().snapshotSorted(), ledger);
    if (!traced)
        return pass;

    // --- per-layer figures from the traced pass -------------------
    auto &layer = pass.layer;
    timeTriageStages(ledger, false, *cache, layer);
    simulatorRows(d, stats.iterations, layer);
    const double batch_s = histSeconds(d, obs::Hist::BatchNs);
    layer["core.batch_s"] = batch_s;
    layer["core.gen_s"] = batch_s - layer["core.phase1_s"] -
                          layer["core.phase2_s"] - layer["core.phase3_s"];
    layer["core.phase1_yield"] =
        ratio(windows, d.hist(obs::Hist::Phase1Ns).count);

    const double run_s = spans.total("campaign.run");
    const double saves_s = spans.total("campaign.save");
    const double idle_s = stats.steal_idle_ns / 1e9;
    layer["campaign.run_s"] = run_s;
    layer["campaign.saves"] = saves;
    layer["campaign.save_ms"] = 1e3 * ratio(saves_s, saves);
    {
        const cp::CampaignDirPaths paths = cp::campaignDirPaths(dir);
        uint64_t bytes = 0;
        if (fleet)
            for (const std::string &path :
                 {paths.meta, paths.log, paths.corpus, paths.snapshot})
                bytes += perfbench::treeBytes(path);
        layer["campaign.save_mb"] = bytes / 1048576.0;
    }
    layer["campaign.barrier_idle_s"] = idle_s;
    layer["campaign.batches_stolen"] = stats.batches_stolen;
    layer["campaign.steals"] = stats.steals;
    layer["campaign.corpus_size"] = stats.corpus_size;
    // Workers share the run's wall time: per worker it splits into
    // batch spans and barrier idle; what is left is serial barrier
    // work (sync, merges, planning) — saves are named separately.
    layer["campaign.residual_s"] =
        run_s - (batch_s + idle_s) / options.workers - saves_s;

    // Reconcile the library's spans: every phase span must lie
    // inside a batch span of the same thread.
    std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> batches;
    for (const obs::TraceEvent &ev : events)
        if (ev.kind == obs::Hist::BatchNs)
            batches[ev.track].emplace_back(ev.begin_ns,
                                           ev.begin_ns + ev.dur_ns);
    double outside_s = 0.0;
    double traced_batch_s = 0.0;
    for (auto &[track, list] : batches) {
        std::sort(list.begin(), list.end());
        for (const auto &[b, e] : list)
            traced_batch_s += (e - b) / 1e9;
    }
    for (const obs::TraceEvent &ev : events) {
        if (ev.kind != obs::Hist::Phase1Ns &&
            ev.kind != obs::Hist::Phase2Ns &&
            ev.kind != obs::Hist::Phase3Ns)
            continue;
        const auto &list = batches[ev.track];
        auto it = std::upper_bound(
            list.begin(), list.end(),
            std::make_pair(ev.begin_ns, UINT64_MAX));
        const bool inside = it != list.begin() &&
                            std::prev(it)->second >=
                                ev.begin_ns + ev.dur_ns;
        if (!inside)
            outside_s += ev.dur_ns / 1e9;
    }
    layer["reconcile.phase_outside_batch_s"] = outside_s;
    layer["reconcile.traced_batch_s"] = traced_batch_s;
    return pass;
}

// --- triage-replay -------------------------------------------------------------

Pass
triagePass(Ctx &ctx, bool traced)
{
    Pass pass;
    perfbench::Digest digest;
    const std::string dir = ctx.args.work + "/input";
    const std::string out_dir = ctx.args.work + "/out";
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);

    // Setup: the campaign-dir load and the replay fuzzers.
    Stopwatch setup_sw;
    cp::LoadedCampaignDir loaded;
    std::string error;
    if (!cp::loadCampaignDir(dir, loaded, &error)) {
        problem(pass, "loadCampaignDir: " + error);
        return pass;
    }
    auto cache = buildCache(ledgerVariants(loaded.checkpoint.ledger));
    pass.setup = setup_sw.wall();

    const double probe = perfbench::hostProbe();
    obs::enableTrace(traced);
    const obs::TelemetrySnapshot before = obs::snapshot();
    uint64_t coverage_points = 0;
    {
        Stopwatch sw;
        runPipeline(ctx, pass, dir, {}, true,
                    cp::campaignDirPaths(dir).log, out_dir, *cache,
                    digest, coverage_points);
        pass.wall = sw.wall();
        pass.cpu = sw.cpu();
    }
    pass.run_host = hostFactor(probe, perfbench::hostProbe());
    pass.pipeline_host.push_back(pass.run_host);
    const obs::TelemetrySnapshot d = obsDelta(before, obs::snapshot());
    obs::enableTrace(false);
    obs::takeTraceEvents();

    pass.digest = digest.hex();
    pass.iters = pass.layer["pipeline.evaluations"];
    pass.coverage = coverage_points;
    pass.windows_per_kiter =
        ratio(1000.0 * pass.layer["pipeline.windowed"],
              pass.layer["pipeline.window_evals"]);
    pass.training_per_window = pass.layer["pipeline.training_per_window"];

    bankInputs(ctx, loaded.corpus.entries, loaded.checkpoint.ledger);
    if (traced) {
        simulatorRows(d, pass.iters, pass.layer);
        timeTriageStages(loaded.checkpoint.ledger, true, *cache,
                         pass.layer);
    }
    return pass;
}

int
generateInput(const Args &args, const Budget &budget)
{
    const std::string dir = args.work + "/input";
    fs::remove_all(dir);
    const cp::CampaignOptions options = inputOptions(args.seed, budget);
    cp::CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    std::string error;
    if (!cp::saveCampaignDir(dir, orchestrator, options, &error)) {
        std::fprintf(stderr, "perfbench: cannot save input: %s\n",
                     error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "perfbench: input campaign seed %" PRIu64
                 ": %zu ledger bugs, %zu corpus entries\n",
                 args.seed, orchestrator.ledger().distinct(),
                 orchestrator.corpus().size());
    return 0;
}

// --- component pass --------------------------------------------------------------

/**
 * Time the simulator layers directly on the workload's banked test
 * cases: swap-packet loads with the undo log closed and open,
 * runSingle with IFT off, and runDual under DiffIFT with Phase 2's
 * options. Feeds the swapmem / uarch / ift / harness.dual_ms rows.
 */
void
componentPass(Ctx &ctx, std::map<std::string, double> &layer)
{
    namespace sm = dejavuzz::swapmem;
    namespace hn = dejavuzz::harness;
    constexpr int kLoadRounds = 4;
    std::map<std::string, std::unique_ptr<hn::DualSim>> sims;
    sm::Memory mem;
    double load_s = 0.0, load_undo_s = 0.0;
    uint64_t loads = 0;
    double single_s = 0.0, dual_s = 0.0;
    uint64_t cycles = 0, runs = 0;

    hn::SimOptions off;
    hn::SimOptions diff = core::FuzzerOptions{}.sim;
    diff.mode = dejavuzz::ift::IftMode::DiffIFT;
    diff.taint_log = true;
    diff.sinks = true;
    hn::DutResult single;
    hn::DualResult dual;

    for (const auto &[tc, config_name] : ctx.banked) {
        if (tc.schedule.packets.empty())
            continue;
        auto it = sims.find(config_name);
        if (it == sims.end()) {
            dejavuzz::uarch::CoreConfig config;
            if (!dejavuzz::uarch::coreConfigByName(config_name, config))
                continue;
            it = sims.emplace(config_name,
                              std::make_unique<hn::DualSim>(config))
                     .first;
            // Untimed warm-up: first runs size the simulator's buffers.
            it->second->runSingle(tc.schedule, tc.data, off, single);
            it->second->armFusion(nullptr);
            it->second->runDual(tc.schedule, tc.data, diff, dual);
        }
        hn::DualSim &sim = *it->second;

        for (int undo = 0; undo < 2; ++undo) {
            for (int r = 0; r < kLoadRounds; ++r) {
                sm::SwapRuntime runtime(tc.schedule);
                if (undo)
                    mem.beginUndo();
                Stopwatch sw;
                runtime.start(mem);
                while (!runtime.done())
                    runtime.advance(mem);
                (undo ? load_undo_s : load_s) += sw.wall();
                if (undo)
                    mem.discardUndo();
            }
        }
        loads += tc.schedule.packets.size();

        {
            Stopwatch sw;
            sim.runSingle(tc.schedule, tc.data, off, single);
            single_s += sw.wall();
        }
        cycles += single.cycles;
        {
            sim.armFusion(nullptr);
            Stopwatch sw;
            sim.runDual(tc.schedule, tc.data, diff, dual);
            dual_s += sw.wall();
        }
        ++runs;
    }
    layer["swapmem.load_us"] = 1e6 * ratio(load_s, kLoadRounds * loads);
    layer["swapmem.load_undo_us"] =
        1e6 * ratio(load_undo_s, kLoadRounds * loads);
    layer["swapmem.loads_per_sim"] = ratio(loads, runs);
    layer["uarch.ns_per_cycle"] = 1e9 * ratio(single_s, cycles);
    layer["uarch.cycles_per_sim"] = ratio(cycles, runs);
    layer["ift.diff_overhead"] = ratio(dual_s, 2.0 * single_s);
    layer["harness.dual_ms"] = 1e3 * ratio(dual_s, runs);
    layer["component.cases"] = runs;
}


// --- reporting ----------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"iters_per_cpu_s", "iter/CPU-s"},
    {"iters_per_s", "iter/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"disk_mb", "MB"},
    {"coverage_points", "count"},
    {"windows_per_kiter", "count"},
    {"training_per_window", "instr"},
    {"replay_bugs_per_s", "bug/s"},
    {"triage_bugs_per_s", "bug/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"swapmem.load_us", "us"},
    {"swapmem.load_undo_us", "us"},
    {"swapmem.loads_per_sim", "count"},
    {"uarch.ns_per_cycle", "ns"},
    {"uarch.cycles_per_sim", "cycle"},
    {"ift.diff_overhead", "ratio"},
    {"ift.module_taint_s", "s"},
    {"ift.transitions_per_sim", "count"},
    {"harness.dual_ms", "ms"},
    {"harness.rollback_s", "s"},
    {"harness.rollbacks_per_sim", "count"},
    {"harness.redo_cycles_per_sim", "cycle"},
    {"harness.checkpoints_per_sim", "count"},
    {"harness.fused_lane_cycles", "cycle"},
    {"core.batch_s", "s"},
    {"core.phase1_s", "s"},
    {"core.phase2_s", "s"},
    {"core.phase3_s", "s"},
    {"core.gen_s", "s"},
    {"core.sims_per_iter", "count"},
    {"core.phase1_yield", "ratio"},
    {"campaign.run_s", "s"},
    {"campaign.save_ms", "ms"},
    {"campaign.saves", "count"},
    {"campaign.save_mb", "MB"},
    {"campaign.barrier_idle_s", "s"},
    {"campaign.batches_stolen", "count"},
    {"campaign.steals", "count"},
    {"campaign.corpus_size", "count"},
    {"campaign.residual_s", "s"},
    {"replay.load_ms", "ms"},
    {"replay.bug_ms", "ms"},
    {"replay.reproduced_ratio", "ratio"},
    {"triage.cluster_ms", "ms"},
    {"triage.matrix_ms", "ms"},
    {"triage.shrink_ms", "ms"},
    {"triage.residual_ms", "ms"},
    {"triage.oracle_calls", "count"},
    {"triage.clusters", "count"},
    {"report.parse_ms", "ms"},
    {"report.render_ms", "ms"},
    {"pipeline.residual_ms", "ms"},
    {"trace_overhead", "ratio"},
};

} // namespace

namespace {

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--workload") {
            args.workload_name = value();
            if (args.workload_name == "fuzz-solo")
                args.workload = Workload::FuzzSolo;
            else if (args.workload_name == "fleet-ckpt")
                args.workload = Workload::FleetCkpt;
            else if (args.workload_name == "triage-replay")
                args.workload = Workload::TriageReplay;
            else
                return false;
        } else if (arg == "--seed") {
            char *end = nullptr;
            const std::string text = value();
            args.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0')
                return false;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            const std::string text = value();
            args.seconds = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || args.seconds < 0.0)
                return false;
        } else if (arg == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1")
                return false;
            args.trace = text == "1";
        } else if (arg == "--work") {
            args.work = value();
        } else if (arg == "--quick") {
            args.quick = true;
        } else if (arg == "--gen-input") {
            args.gen_input = true;
        } else {
            return false;
        }
    }
    return !args.work.empty() &&
           (args.gen_input || !args.workload_name.empty());
}

/** Setup only, as a pass performs it, for extra setup_s samples. */
double
setupOnce(const Ctx &ctx)
{
    Stopwatch sw;
    if (ctx.args.workload == Workload::TriageReplay) {
        cp::LoadedCampaignDir loaded;
        if (!cp::loadCampaignDir(ctx.args.work + "/input", loaded))
            return 0.0;
        buildCache(ledgerVariants(loaded.checkpoint.ledger));
    } else {
        const cp::CampaignOptions options =
            ctx.args.workload == Workload::FleetCkpt
                ? fleetOptions(ctx.args.seed, ctx.budget)
                : soloOptions(ctx.args.seed, ctx.budget);
        cp::CampaignOrchestrator orchestrator(options);
        buildCache({"full"});
    }
    return sw.wall();
}

/**
 * replayLedger's time at its best over @p passes: every record's
 * fastest replay plus the fastest rest of the call, each divided by
 * its pipeline's host slowdown. Each part is the same work every
 * time, and at a millisecond each the records find the host's quiet
 * moments even when a whole replay does not.
 */
double
bestReplaySeconds(const std::vector<Pass> &passes)
{
    std::vector<double> records;
    double rest = 0.0;
    bool first = true;
    for (const Pass &pass : passes) {
        for (size_t r = 0; r < pass.replay_record_s.size(); ++r) {
            const std::vector<double> &times = pass.replay_record_s[r];
            const double host = pass.pipeline_host[r];
            if (first) {
                for (double t : times)
                    records.push_back(t / host);
                rest = pass.replay_rest_s[r] / host;
                first = false;
                continue;
            }
            // The same ledger every time: the pass digest checks it.
            for (size_t i = 0; i < std::min(records.size(), times.size());
                 ++i)
                records[i] = std::min(records[i], times[i] / host);
            rest = std::min(rest, pass.replay_rest_s[r] / host);
        }
    }
    return std::accumulate(records.begin(), records.end(), rest);
}

/** Pass wall time the trace overhead compares. */
double
passWall(const Ctx &ctx, const Pass &pass)
{
    return ctx.args.workload == Workload::TriageReplay
               ? pass.wall
               : pass.wall + pass.pipeline_wall;
}

/**
 * Span-derived rows of a traced pass, and the reconciliation print:
 * per parent span its children, self time and residual. Returns
 * false when a child exceeds its parent beyond timer noise.
 */
bool
reconcile(const Ctx &ctx, Pass &pass)
{
    const perfbench::SpanLog &spans = ctx.spans;
    auto &layer = pass.layer;
    layer["replay.load_ms"] = 1e3 * spans.total("replay.load");
    layer["replay.bug_ms"] =
        1e3 * ratio(spans.total("replay"), pass.replay_bugs);
    layer["report.parse_ms"] = 1e3 * spans.total("report.parse");
    layer["report.render_ms"] = 1e3 * spans.total("report.render");
    // The stages were timed in a second execution with warm fuzzers;
    // the residual is sorting, annotation and the cold start.
    layer["triage.residual_ms"] =
        1e3 * spans.total("triage") - layer["triage.cluster_ms"] -
        layer["triage.matrix_ms"] - layer["triage.shrink_ms"];

    bool ok = true;
    auto noise = [](double parent) { return 1e-3 + 0.01 * parent; };

    // Benchmark-side spans: children are the spans opened inside.
    const auto &list = spans.spans();
    std::map<std::string, std::pair<double, std::map<std::string, double>>>
        tree;
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &span = list[i];
        tree[span.name].first += span.end - span.begin;
        if (span.parent >= 0)
            tree[list[span.parent].name].second[span.name] +=
                span.end - span.begin;
    }
    for (const auto &[name, entry] : tree) {
        const auto &[total, children] = entry;
        // campaign.run's children are library spans (printed below).
        if (children.empty() || name == "campaign.run")
            continue;
        double sum = 0.0;
        std::string parts;
        for (const auto &[child, seconds] : children) {
            sum += seconds;
            char buf[96];
            std::snprintf(buf, sizeof(buf), " %s %.4f", child.c_str(),
                          seconds);
            parts += buf;
        }
        std::fprintf(stderr,
                     "  [span] %-14s %.4f s =%s | self/residual %.4f s "
                     "(%.1f%%)\n",
                     name.c_str(), total, parts.c_str(), total - sum,
                     100.0 * ratio(total - sum, total));
        if (sum > total + noise(total))
            ok = false;
        if (name == "pipeline")
            layer["pipeline.residual_ms"] = 1e3 * (total - sum);
    }

    if (ctx.args.workload == Workload::TriageReplay)
        return ok;

    // Library spans of the campaign: batch = phases + generation
    // self time; run = per-worker (batch + barrier idle) + saves +
    // residual.
    const double batch_s = layer["core.batch_s"];
    const double workers =
        ctx.args.workload == Workload::FleetCkpt ? 2.0 : 1.0;
    std::fprintf(stderr,
                 "  [lib]  batch          %.4f s = phase1 %.4f phase2 %.4f "
                 "phase3 %.4f | core.gen_s (self) %.4f s (%.1f%%)\n",
                 batch_s, layer["core.phase1_s"], layer["core.phase2_s"],
                 layer["core.phase3_s"], layer["core.gen_s"],
                 100.0 * ratio(layer["core.gen_s"], batch_s));
    std::fprintf(stderr,
                 "  [lib]  campaign.run   %.4f s = batch/worker %.4f "
                 "idle/worker %.4f saves %.4f | residual %.4f s "
                 "(%.1f%%)\n",
                 layer["campaign.run_s"], batch_s / workers,
                 layer["campaign.barrier_idle_s"] / workers,
                 1e-3 * layer["campaign.save_ms"] * layer["campaign.saves"],
                 layer["campaign.residual_s"],
                 100.0 * ratio(layer["campaign.residual_s"],
                               layer["campaign.run_s"]));
    std::fprintf(stderr,
                 "  [lib]  phase spans outside a batch span: %.6f s; "
                 "traced batch spans %.4f s vs histogram %.4f s\n",
                 layer["reconcile.phase_outside_batch_s"],
                 layer["reconcile.traced_batch_s"], batch_s);
    if (layer["core.gen_s"] < -noise(batch_s) ||
        layer["campaign.residual_s"] < -noise(layer["campaign.run_s"]) ||
        layer["reconcile.phase_outside_batch_s"] > noise(batch_s))
        ok = false;
    return ok;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: dvz_perfbench --workload "
                     "fuzz-solo|fleet-ckpt|triage-replay --seed N "
                     "--seconds S --trace 0|1 --work DIR [--quick]\n"
                     "       dvz_perfbench --gen-input --seed N "
                     "--work DIR [--quick]\n");
        return 2;
    }
    dejavuzz::setQuiet(true);
    const Budget budget = budgetFor(args.quick);
    fs::create_directories(args.work);
    if (args.gen_input)
        return generateInput(args, budget);

    Ctx ctx;
    ctx.args = args;
    ctx.budget = budget;

    std::vector<double> setup_samples;
    for (unsigned i = 0; i < budget.setup_reps; ++i)
        setup_samples.push_back(setupOnce(ctx));

    std::vector<Pass> untraced, traced;
    std::vector<std::string> problems;
    uint64_t attempted = 0, failed = 0;
    std::string digest;
    const Stopwatch run_sw;
    for (unsigned n = 0;; ++n) {
        const bool tracing = args.trace && n % 2 == 1;
        ctx.spans.clear();
        ctx.spans.enable(tracing);
        Pass pass = args.workload == Workload::TriageReplay
                        ? triagePass(ctx, tracing)
                        : fuzzPass(ctx, tracing);
        ctx.spans.enable(false);
        if (tracing && !reconcile(ctx, pass))
            problem(pass, "traced spans do not reconcile");

        std::fprintf(stderr,
                     "perfbench: %s pass %u%s: %.3f s wall, %.3f s CPU, "
                     "%" PRIu64 " iterations; best replay %.1f bug/s, "
                     "best pipeline %.1f bug/s; host x%.3f; digest %s\n",
                     args.workload_name.c_str(), n,
                     tracing ? " (traced)" : "", pass.wall, pass.cpu,
                     pass.iters, perfbench::highest(pass.replay_rates),
                     perfbench::highest(pass.pipeline_rates),
                     pass.run_host, pass.digest.c_str());
        setup_samples.push_back(pass.setup);
        ++attempted; // the digest comparison
        if (digest.empty()) {
            digest = pass.digest;
        } else if (pass.digest != digest) {
            ++failed;
            problem(pass, "pass digest " + pass.digest +
                              " differs from " + digest);
        }
        attempted += pass.attempted;
        failed += pass.failed;
        problems.insert(problems.end(), pass.problems.begin(),
                        pass.problems.end());
        // A pass that could not even produce a digest (unloadable
        // input) ends the run.
        const bool fatal = pass.digest.empty();
        (tracing ? traced : untraced).push_back(std::move(pass));
        const bool done = run_sw.wall() >= args.seconds && n >= 1 &&
                          (!args.trace || !traced.empty());
        if (fatal || done)
            break;
    }

    // End-to-end figures: untraced passes only.
    const Pass &first = untraced.front();
    std::vector<double> cpu_rates, wall_rates, pipeline_rest;
    for (const Pass &pass : untraced) {
        cpu_rates.push_back(ratio(pass.iters, pass.cpu) * pass.run_host);
        wall_rates.push_back(ratio(pass.iters, pass.wall) * pass.run_host);
        for (size_t r = 0; r < pass.pipeline_rest_s.size(); ++r)
            pipeline_rest.push_back(pass.pipeline_rest_s[r] /
                                    pass.pipeline_host[r]);
    }
    // The pipeline at its best: its replay stage as replay_bugs_per_s
    // takes it, plus the fastest rest of a pipeline.
    const double replay_s = bestReplaySeconds(untraced);
    const double pipeline_s =
        pipeline_rest.empty()
            ? 0.0
            : replay_s + *std::min_element(pipeline_rest.begin(),
                                           pipeline_rest.end());
    // Throughputs take the run's best sample: the same fixed work
    // only ever runs slower when a neighbour on the host contends, so
    // the fastest sample tracks the program and the median tracks the
    // neighbours (perfbench/README.md, "How a run measures").
    using perfbench::highest;
    using perfbench::median;
    std::vector<std::pair<std::string, double>> e2e = {
        {"iters_per_cpu_s", highest(cpu_rates)},
        {"iters_per_s", highest(wall_rates)},
        {"setup_s", median(setup_samples)},
        {"peak_rss_mb", perfbench::peakRssMb()},
        {"disk_mb", first.disk_mb},
        {"coverage_points", first.coverage},
        {"windows_per_kiter", first.windows_per_kiter},
        {"training_per_window", first.training_per_window},
        {"replay_bugs_per_s", ratio(first.replay_bugs, replay_s)},
        {"triage_bugs_per_s", ratio(first.replay_bugs, pipeline_s)},
    };
    const double failed_ratio = ratio(failed, attempted);

    std::fprintf(stderr, "\nperfbench %s seed %" PRIu64 ": %zu untraced + "
                 "%zu traced passes\n",
                 args.workload_name.c_str(), args.seed, untraced.size(),
                 traced.size());
    for (size_t i = 0; i < e2e.size(); ++i)
        std::fprintf(stderr, "  %-22s %14.6g %s\n", e2e[i].first.c_str(),
                     e2e[i].second, kEndToEnd[i].unit);
    std::fprintf(stderr, "  %-22s %14.6g %s (%" PRIu64 " of %" PRIu64 ")\n",
                 "failed_ratio", failed_ratio, "ratio", failed, attempted);

    std::map<std::string, double> layer;
    if (args.trace) {
        std::map<std::string, std::vector<double>> samples;
        for (const Pass &pass : traced)
            for (const auto &[name, value] : pass.layer)
                samples[name].push_back(value);
        for (auto &[name, values] : samples)
            layer[name] = perfbench::median(values);
        std::vector<double> tw, uw;
        for (const Pass &pass : traced)
            tw.push_back(passWall(ctx, pass));
        for (const Pass &pass : untraced)
            uw.push_back(passWall(ctx, pass));
        layer["trace_overhead"] =
            ratio(perfbench::median(tw), perfbench::median(uw));
        componentPass(ctx, layer);
        std::fprintf(stderr, "  per-layer (median of traced passes; "
                             "component pass over %g banked cases):\n",
                     layer["component.cases"]);
        for (const MetricDef &def : kPerLayer)
            std::fprintf(stderr, "  %-28s %14.6g %s\n", def.name,
                         layer[def.name], def.unit);
    }

    const bool correct = problems.empty() && failed == 0;
    std::printf("digest %s seed=%" PRIu64 " %s\n",
                args.workload_name.c_str(), args.seed, digest.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool comma = false;
    auto emit = [&](const std::string &name, double value,
                    const char *unit) {
        json += comma ? ", " : "";
        json += "\"" + name + "\": {\"value\": " + fmt(value) +
                ", \"unit\": \"" + unit + "\"}";
        comma = true;
    };
    if (args.trace) {
        for (const MetricDef &def : kPerLayer)
            emit(def.name, layer[def.name], def.unit);
    } else {
        for (size_t i = 0; i < e2e.size(); ++i)
            emit(e2e[i].first, e2e[i].second, kEndToEnd[i].unit);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
