#include "report/triage_log.hh"

#include <algorithm>
#include <istream>

#include "report/json.hh"

namespace dejavuzz::report {

namespace {

bool
fail(std::string *error, size_t lineno, const std::string &what)
{
    if (error)
        *error = "triage.jsonl line " + std::to_string(lineno) +
                 ": " + what;
    return false;
}

} // namespace

bool
parseTriageLog(std::istream &is, TriageLog &out, std::string *error)
{
    TriageLog log;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonObject obj;
        std::string what;
        if (!parseFlatJsonObject(line, obj, &what))
            return fail(error, lineno, what);

        FieldReader fields(obj, what);
        std::string record;
        fields.read("record", record);
        if (record == "cluster") {
            ClusterRow row;
            fields.read("id", row.id);
            fields.read("representative", row.representative);
            fields.read("size", row.size);
            fields.read("members", row.members);
            fields.read("components", row.components);
            if (!fields.ok())
                return fail(error, lineno, what);
            log.clusters.push_back(std::move(row));
        } else if (record == "portability") {
            PortabilityRow row;
            fields.read("key", row.key);
            fields.read("origin", row.origin);
            fields.read("variant", row.variant);
            fields.read("config", row.config);
            fields.read("reproduced", row.reproduced);
            fields.read("observed", row.observed);
            if (!fields.ok())
                return fail(error, lineno, what);
            log.portability.push_back(std::move(row));
        } else if (record == "poc") {
            PocRow row;
            fields.read("cluster", row.cluster);
            fields.read("key", row.key);
            fields.read("config", row.config);
            fields.read("variant", row.variant);
            fields.read("file", row.file);
            fields.read("packets_before", row.packets_before);
            fields.read("packets_after", row.packets_after);
            fields.read("instrs_before", row.instrs_before);
            fields.read("instrs_after", row.instrs_after);
            fields.read("effective_before", row.effective_before);
            fields.read("effective_after", row.effective_after);
            fields.read("oracle_calls", row.oracle_calls);
            if (!fields.ok())
                return fail(error, lineno, what);
            log.pocs.push_back(std::move(row));
        } else if (!fields.ok()) {
            return fail(error, lineno, what);
        } else {
            return fail(error, lineno,
                        "unknown record type \"" + record + "\"");
        }
    }
    out = std::move(log);
    return true;
}

std::vector<ReportTable>
buildTriageTables(const TriageLog &log)
{
    std::vector<ReportTable> tables;

    ReportTable clusters;
    clusters.title = "Bug clusters";
    clusters.header = {"cluster", "size", "representative",
                       "components", "members"};
    for (const ClusterRow &row : log.clusters) {
        clusters.rows.push_back({row.id, std::to_string(row.size),
                                 row.representative, row.components,
                                 row.members});
    }
    tables.push_back(std::move(clusters));

    // Pivot: one row per bug in first-appearance order, one column
    // per config in first-appearance order (the writer emits both in
    // canonical order, so the table inherits it).
    std::vector<std::string> configs;
    for (const PortabilityRow &row : log.portability) {
        if (std::find(configs.begin(), configs.end(), row.config) ==
            configs.end()) {
            configs.push_back(row.config);
        }
    }
    ReportTable matrix;
    matrix.title = "Portability matrix";
    matrix.header = {"bug", "origin", "variant"};
    for (const std::string &config : configs)
        matrix.header.push_back(config);
    std::vector<std::string> keys;
    for (const PortabilityRow &row : log.portability) {
        if (std::find(keys.begin(), keys.end(), row.key) ==
            keys.end()) {
            keys.push_back(row.key);
        }
    }
    for (const std::string &key : keys) {
        std::vector<std::string> cells(3 + configs.size(), "-");
        cells[0] = key;
        for (const PortabilityRow &row : log.portability) {
            if (row.key != key)
                continue;
            cells[1] = row.origin;
            cells[2] = row.variant;
            const auto it = std::find(configs.begin(), configs.end(),
                                      row.config);
            const size_t col =
                3 + static_cast<size_t>(it - configs.begin());
            cells[col] = row.reproduced
                             ? "yes"
                             : "no (" + row.observed + ")";
        }
        matrix.rows.push_back(std::move(cells));
    }
    tables.push_back(std::move(matrix));

    ReportTable pocs;
    pocs.title = "Standalone PoCs";
    pocs.header = {"cluster", "file", "config", "variant", "packets",
                   "instrs", "effective_instrs", "oracle_calls",
                   "bug"};
    auto arrow = [](uint64_t before, uint64_t after) {
        return std::to_string(before) + " -> " +
               std::to_string(after);
    };
    for (const PocRow &row : log.pocs) {
        pocs.rows.push_back(
            {row.cluster, row.file, row.config, row.variant,
             arrow(row.packets_before, row.packets_after),
             arrow(row.instrs_before, row.instrs_after),
             arrow(row.effective_before, row.effective_after),
             std::to_string(row.oracle_calls), row.key});
    }
    tables.push_back(std::move(pocs));

    return tables;
}

} // namespace dejavuzz::report
