#include "report/campaign_log.hh"

#include <istream>

#include "campaign/io_util.hh"
#include "report/json.hh"

namespace dejavuzz::report {

double
CampaignLog::timeToFirstBug() const
{
    for (const auto &row : epochs) {
        if (row.distinct_bugs > 0)
            return row.wall_seconds;
    }
    return -1.0;
}

double
CampaignLog::timeToCoverage(uint64_t target) const
{
    for (const auto &row : epochs) {
        if (row.coverage_points >= target)
            return row.wall_seconds;
    }
    return -1.0;
}

bool
parseCampaignLog(std::istream &is, const std::string &name,
                 CampaignLog &out, std::string *error)
{
    out = CampaignLog{};
    out.name = name;

    unsigned summaries = 0;
    uint64_t line_no = 0;
    std::string line;
    auto fail = [&](const std::string &what) {
        if (error)
            *error = name + " line " + std::to_string(line_no) +
                     ": " + what;
        return false;
    };

    // Running integrity state: a checkpointed log ends with a
    // trailer record whose CRC-32 covers every byte before it, so
    // the checksum is chained line by line as the log is consumed
    // (getline strips the '\n' each line was written with).
    uint64_t bytes_before = 0;
    uint32_t running_crc = 0;
    auto consume = [&](const std::string &text) {
        running_crc =
            campaign::crc32(text.data(), text.size(), running_crc);
        running_crc = campaign::crc32("\n", 1, running_crc);
        bytes_before += text.size() + 1;
    };

    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty()) {
            consume(line);
            continue;
        }
        if (out.has_trailer)
            return fail("record after the integrity trailer");

        JsonObject obj;
        std::string json_error;
        if (!parseFlatJsonObject(line, obj, &json_error))
            return fail(json_error);

        std::string field_error;
        FieldReader fields(obj, field_error);
        std::string type;
        fields.read("type", type);
        if (!fields.ok())
            return fail(field_error);

        if (type == "worker") {
            WorkerRow row;
            fields.read("worker", row.worker);
            fields.read("config", row.config);
            fields.read("variant", row.variant);
            fields.read("iterations", row.iterations);
            fields.read("simulations", row.simulations);
            fields.read("windows", row.windows);
            fields.read("coverage_points", row.coverage_points);
            fields.read("seeds_imported", row.seeds_imported);
            fields.read("bugs", row.bugs);
            fields.read("active_seconds", row.active_seconds);
            if (!fields.ok())
                return fail(field_error);
            out.workers.push_back(std::move(row));
        } else if (type == "trigger") {
            TriggerRow row;
            fields.read("kind", row.kind);
            fields.read("windows", row.windows);
            fields.read("training_overhead", row.training_overhead);
            fields.read("effective_overhead", row.effective_overhead);
            if (!fields.ok())
                return fail(field_error);
            out.triggers.push_back(std::move(row));
        } else if (type == "epoch") {
            EpochRow row;
            fields.read("epoch", row.epoch);
            fields.read("iterations", row.iterations);
            fields.read("coverage_points", row.coverage_points);
            fields.read("distinct_bugs", row.distinct_bugs);
            fields.read("corpus_size", row.corpus_size);
            fields.read("batches_stolen", row.batches_stolen,
                        /*required=*/false);
            fields.read("steal_idle_ns", row.steal_idle_ns,
                        /*required=*/false);
            fields.read("wall_seconds", row.wall_seconds);
            if (!fields.ok())
                return fail(field_error);
            out.epochs.push_back(row);
        } else if (type == "bug") {
            BugRow row;
            fields.read("key", row.key);
            fields.read("description", row.description);
            fields.read("worker", row.worker);
            fields.read("epoch", row.epoch);
            fields.read("iteration", row.iteration);
            fields.read("config", row.config, /*required=*/false);
            fields.read("variant", row.variant, /*required=*/false);
            fields.read("hits", row.hits);
            if (!fields.ok())
                return fail(field_error);
            out.bugs.push_back(std::move(row));
        } else if (type == "heartbeat") {
            HeartbeatRow row;
            fields.read("seq", row.seq);
            fields.read("wall_seconds", row.wall_seconds);
            for (unsigned i = 0; i < obs::kNumCtrs; ++i)
                fields.read(obs::ctrName(static_cast<obs::Ctr>(i)),
                            row.counters[i]);
            for (unsigned i = 0; i < obs::kNumGauges; ++i)
                fields.read(obs::gaugeName(static_cast<obs::Gauge>(i)),
                            row.gauges[i]);
            for (unsigned i = 0; i < obs::kNumHists; ++i) {
                const std::string name =
                    obs::histName(static_cast<obs::Hist>(i));
                fields.read(name + "_count", row.hist_count[i]);
                fields.read(name + "_sum", row.hist_sum[i]);
            }
            fields.read("batch_p50_ns", row.batch_p50_ns,
                        /*required=*/false);
            fields.read("batch_p99_ns", row.batch_p99_ns,
                        /*required=*/false);
            if (!fields.ok())
                return fail(field_error);
            out.heartbeats.push_back(row);
        } else if (type == "summary") {
            SummaryRow row;
            fields.read("workers", row.workers);
            fields.read("policy", row.policy);
            fields.read("master_seed", row.master_seed);
            fields.read("templates", row.templates,
                        /*required=*/false);
            fields.read("iterations", row.iterations);
            fields.read("simulations", row.simulations);
            fields.read("windows", row.windows);
            fields.read("coverage_points", row.coverage_points);
            fields.read("distinct_bugs", row.distinct_bugs);
            fields.read("total_reports", row.total_reports);
            fields.read("epochs", row.epochs);
            fields.read("corpus_size", row.corpus_size);
            fields.read("corpus_preloaded", row.corpus_preloaded,
                        /*required=*/false);
            fields.read("corpus_minimized", row.corpus_minimized,
                        /*required=*/false);
            fields.read("coverage_preloaded", row.coverage_preloaded,
                        /*required=*/false);
            fields.read("bugs_restored", row.bugs_restored,
                        /*required=*/false);
            fields.read("reports_restored", row.reports_restored,
                        /*required=*/false);
            fields.read("steals", row.steals);
            fields.read("sched", row.sched, /*required=*/false);
            fields.read("batch", row.batch, /*required=*/false);
            fields.read("batches", row.batches, /*required=*/false);
            fields.read("batches_stolen", row.batches_stolen,
                        /*required=*/false);
            fields.read("batch_retries", row.batch_retries,
                        /*required=*/false);
            fields.read("batch_deadline_kills",
                        row.batch_deadline_kills,
                        /*required=*/false);
            fields.read("batches_failed", row.batches_failed,
                        /*required=*/false);
            fields.read("quarantined_seeds", row.quarantined_seeds,
                        /*required=*/false);
            fields.read("kinds_disabled", row.kinds_disabled,
                        /*required=*/false);
            fields.read("steal_idle_ns", row.steal_idle_ns,
                        /*required=*/false);
            fields.read("wall_seconds", row.wall_seconds);
            fields.read("iters_per_sec", row.iters_per_sec);
            if (!fields.ok())
                return fail(field_error);
            out.summary = std::move(row);
            ++summaries;
        } else if (type == "trailer") {
            TrailerRow row;
            fields.read("generation", row.generation);
            fields.read("bytes", row.bytes);
            fields.read("crc32", row.crc32);
            if (!fields.ok())
                return fail(field_error);
            if (row.bytes != bytes_before)
                return fail(
                    "trailer covers " + std::to_string(row.bytes) +
                    " bytes but " + std::to_string(bytes_before) +
                    " precede it (torn log)");
            if (row.crc32 != running_crc)
                return fail("trailer CRC mismatch (corrupt log)");
            out.trailer = row;
            out.has_trailer = true;
        } else {
            return fail("unknown record type \"" + type + "\"");
        }
        consume(line);
    }

    if (summaries != 1)
        return fail("expected exactly one summary record, found " +
                    std::to_string(summaries));
    return true;
}

std::vector<std::string>
validateCampaignLog(const CampaignLog &log)
{
    std::vector<std::string> problems;
    auto check = [&](bool condition, const std::string &what) {
        if (!condition)
            problems.push_back(what);
    };
    auto sum = [&](auto field) {
        uint64_t total = 0;
        for (const auto &row : log.workers)
            total += row.*field;
        return total;
    };

    const SummaryRow &s = log.summary;
    check(!log.workers.empty(), "log has no worker records");
    check(s.workers == log.workers.size(),
          "summary.workers does not match the worker record count");
    check(sum(&WorkerRow::iterations) == s.iterations,
          "per-worker iterations do not sum to summary.iterations");
    check(sum(&WorkerRow::simulations) == s.simulations,
          "per-worker simulations do not sum to "
          "summary.simulations");
    check(sum(&WorkerRow::windows) == s.windows,
          "per-worker windows do not sum to summary.windows");
    // A resumed campaign's workers report only the resumed half;
    // the restored hits make up the difference (0 on fresh runs).
    check(sum(&WorkerRow::bugs) + s.reports_restored ==
              s.total_reports,
          "per-worker bug reports plus summary.reports_restored do "
          "not sum to summary.total_reports");
    check(s.reports_restored <= s.total_reports,
          "summary.reports_restored exceeds summary.total_reports");
    check(s.bugs_restored <= s.distinct_bugs,
          "summary.bugs_restored exceeds summary.distinct_bugs");

    uint64_t trigger_windows = 0;
    for (const auto &row : log.triggers)
        trigger_windows += row.windows;
    check(trigger_windows == s.windows,
          "per-trigger windows do not sum to summary.windows");

    check(log.bugs.size() == s.distinct_bugs,
          "bug record count does not match summary.distinct_bugs");
    uint64_t hits = 0;
    for (const auto &row : log.bugs)
        hits += row.hits;
    check(hits == s.total_reports,
          "bug hits do not sum to summary.total_reports");

    // Logs from schema revisions predating the epoch record type
    // carry none at all; only a *partial* epoch series is corrupt.
    check(log.epochs.empty() || log.epochs.size() == s.epochs,
          "epoch record count does not match summary.epochs");
    for (size_t i = 0; i < log.epochs.size(); ++i) {
        if (log.epochs[i].epoch != i) {
            problems.push_back(
                "epoch records are not consecutive from 0");
            break;
        }
    }
    check(s.batches_stolen <= s.batches,
          "summary.batches_stolen exceeds summary.batches");
    // Robustness accounting: every failed batch was still counted in
    // summary.batches, each watchdog kill consumed one attempt
    // (batches + batch_retries bounds the attempt total), and a seed
    // only reaches quarantine when the batch replaying it failed.
    check(s.batches_failed <= s.batches,
          "summary.batches_failed exceeds summary.batches");
    check(s.batch_deadline_kills <= s.batches + s.batch_retries,
          "summary.batch_deadline_kills exceeds total batch "
          "attempts");
    check(s.quarantined_seeds == 0 || s.batches_failed > 0,
          "summary.quarantined_seeds is non-zero with no failed "
          "batches");
    check(s.kinds_disabled <= s.workers,
          "summary.kinds_disabled exceeds summary.workers");
    if (!log.epochs.empty()) {
        uint64_t stolen = 0;
        for (const auto &row : log.epochs)
            stolen += row.batches_stolen;
        check(stolen == s.batches_stolen,
              "per-epoch batches_stolen do not sum to "
              "summary.batches_stolen");
        const EpochRow &last = log.epochs.back();
        check(last.iterations == s.iterations,
              "final epoch iterations do not match "
              "summary.iterations");
        check(last.coverage_points == s.coverage_points,
              "final epoch coverage does not match "
              "summary.coverage_points");
        check(last.distinct_bugs == s.distinct_bugs,
              "final epoch distinct_bugs does not match "
              "summary.distinct_bugs");
    }

    // Heartbeats are cumulative snapshots: seq strictly increases,
    // and wall_seconds, every counter and every histogram total is
    // non-decreasing in emission order. Gauges (corpus size etc.)
    // are last-value samples and legitimately fluctuate.
    for (size_t i = 0; i < log.heartbeats.size(); ++i) {
        const HeartbeatRow &hb = log.heartbeats[i];
        check(hb.counter(obs::Ctr::StealHits) <=
                  hb.counter(obs::Ctr::StealAttempts),
              "heartbeat steal_hits exceeds steal_attempts");
        if (i == 0)
            continue;
        const HeartbeatRow &prev = log.heartbeats[i - 1];
        check(hb.seq > prev.seq,
              "heartbeat seq values are not strictly increasing");
        check(hb.wall_seconds >= prev.wall_seconds,
              "heartbeat wall_seconds regresses");
        for (unsigned c = 0; c < obs::kNumCtrs; ++c) {
            check(hb.counters[c] >= prev.counters[c],
                  std::string("heartbeat counter \"") +
                      obs::ctrName(static_cast<obs::Ctr>(c)) +
                      "\" decreases");
        }
        for (unsigned h = 0; h < obs::kNumHists; ++h) {
            const char *name =
                obs::histName(static_cast<obs::Hist>(h));
            check(hb.hist_count[h] >= prev.hist_count[h],
                  std::string("heartbeat histogram \"") + name +
                      "\" count decreases");
            check(hb.hist_sum[h] >= prev.hist_sum[h],
                  std::string("heartbeat histogram \"") + name +
                      "\" sum decreases");
        }
        if (problems.size() > 16)
            break; // a corrupt log flood helps nobody
    }
    return problems;
}

} // namespace dejavuzz::report
