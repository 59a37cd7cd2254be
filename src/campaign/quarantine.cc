#include "campaign/quarantine.hh"

#include <filesystem>
#include <fstream>

#include "campaign/io_util.hh"
#include "campaign/stats.hh"
#include "report/json.hh"

namespace dejavuzz::campaign {

namespace {

/** Parse one ledger line; @p error gets the reason on failure. */
bool
parseRecord(const std::string &line, QuarantineRecord &rec,
            std::string &error)
{
    report::JsonObject obj;
    if (!report::parseFlatJsonObject(line, obj, &error))
        return false;

    report::FieldReader fields(obj, error);
    std::string type;
    fields.read("type", type);
    if (!fields.ok())
        return false;
    if (type != "quarantine") {
        error = "unknown record type \"" + type + "\"";
        return false;
    }

    std::string case_hex;
    fields.read("worker", rec.worker);
    fields.read("batch", rec.batch);
    fields.read("attempts", rec.attempts);
    fields.read("reason", rec.reason);
    fields.read("case", case_hex);
    if (!fields.ok())
        return false;
    if (!bio::testCaseFromHex(case_hex, rec.tc, error)) {
        error = "field \"case\": " + error;
        return false;
    }
    return true;
}

} // namespace

void
writeQuarantineRecord(std::ostream &os, const QuarantineRecord &rec)
{
    os << "{\"type\":\"quarantine\",\"worker\":" << rec.worker
       << ",\"batch\":" << rec.batch
       << ",\"attempts\":" << rec.attempts << ",\"reason\":\""
       << jsonEscape(rec.reason) << "\",\"case\":\""
       << bio::testCaseToHex(rec.tc) << "\"}\n";
}

bool
appendQuarantine(const std::string &path,
                 const std::vector<QuarantineRecord> &records,
                 std::string *error)
{
    if (records.empty())
        return true;
    std::ofstream os(path, std::ios::out | std::ios::app);
    if (!os) {
        if (error)
            *error = "cannot open " + path + " for appending";
        return false;
    }
    for (const QuarantineRecord &rec : records)
        writeQuarantineRecord(os, rec);
    os.flush();
    if (!os) {
        if (error)
            *error = "append to " + path + " failed";
        return false;
    }
    return true;
}

bool
loadQuarantine(std::istream &is, std::vector<QuarantineRecord> &out,
               std::string *error, std::string *torn_note)
{
    out.clear();
    std::string line;
    size_t lineno = 0;
    std::string pending_error;
    size_t pending_lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // A record that fails to parse is fatal only if any line
        // follows it: the torn final line a crash mid-append leaves
        // behind is dropped, everything earlier must be intact.
        if (!pending_error.empty()) {
            if (error)
                *error = "quarantine.jsonl line " +
                         std::to_string(pending_lineno) + ": " +
                         pending_error;
            return false;
        }
        QuarantineRecord rec;
        std::string rec_error;
        if (parseRecord(line, rec, rec_error)) {
            out.push_back(std::move(rec));
        } else {
            pending_error = rec_error;
            pending_lineno = lineno;
        }
    }
    if (!pending_error.empty() && torn_note) {
        *torn_note = "quarantine.jsonl: dropped torn final line " +
                     std::to_string(pending_lineno) + " (" +
                     pending_error + ")";
    }
    return true;
}

bool
loadQuarantineFile(const std::string &path,
                   std::vector<QuarantineRecord> &out,
                   std::string *error, std::string *torn_note)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        out.clear();
        return true;
    }
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    return loadQuarantine(is, out, error, torn_note);
}

} // namespace dejavuzz::campaign
