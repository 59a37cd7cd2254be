#include "triage/poc.hh"

#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "campaign/io_util.hh"
#include "isa/instr.hh"

namespace dejavuzz::triage {

namespace {

namespace bio = campaign::bio;

constexpr char kMagic[] = "DVZPOC 1";

/** One-line register/immediate rendering, uniform across formats. */
std::string
disasmLine(const isa::Instr &instr)
{
    std::ostringstream os;
    os << isa::mnemonic(instr.op);
    if (isa::fpRd(instr.op))
        os << " " << isa::fregName(instr.rd);
    else
        os << " " << isa::regName(instr.rd);
    if (isa::fpRs1(instr.op))
        os << ", " << isa::fregName(instr.rs1);
    else
        os << ", " << isa::regName(instr.rs1);
    if (isa::fpRs2(instr.op))
        os << ", " << isa::fregName(instr.rs2);
    else
        os << ", " << isa::regName(instr.rs2);
    os << ", " << instr.imm;
    return os.str();
}

bool
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

void
writePocFile(std::ostream &os, const PocArtifact &poc)
{
    os << kMagic << "\n";
    os << "cluster: " << poc.cluster << "\n";
    os << "key: " << poc.key << "\n";
    os << "config: " << poc.config << "\n";
    os << "variant: " << poc.variant << "\n";

    // Human-readable view; replay ignores every `#` line and trusts
    // only the binary blob below.
    os << "# trigger " << core::triggerKindName(poc.tc.seed.trigger)
       << ", " << poc.tc.schedule.packets.size() << " packet(s), "
       << poc.tc.schedule.effectiveTrainingOverhead()
       << " effective training instr(s)\n";
    for (size_t p = 0; p < poc.tc.schedule.packets.size(); ++p) {
        const swapmem::SwapPacket &packet =
            poc.tc.schedule.packets[p];
        os << "# packet " << p << " "
           << swapmem::packetKindName(packet.kind) << " \""
           << packet.label << "\"\n";
        for (size_t i = 0; i < packet.instrs.size(); ++i)
            os << "#   " << i << ": " << disasmLine(packet.instrs[i])
               << "\n";
    }

    os << "case: " << bio::testCaseToHex(poc.tc) << "\n";
    os << "end\n";
}

bool
readPocFile(std::istream &is, PocArtifact &out, std::string *error)
{
    std::string line;
    if (!std::getline(is, line) || line != kMagic)
        return setError(error, "not a DVZPOC 1 file");

    PocArtifact poc;
    std::set<std::string> seen;
    bool saw_end = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "end") {
            saw_end = true;
            break;
        }
        const size_t sep = line.find(": ");
        if (sep == std::string::npos)
            return setError(error,
                            "malformed PoC line \"" + line + "\"");
        const std::string field = line.substr(0, sep);
        std::string value = line.substr(sep + 2);
        std::string *text = field == "cluster"   ? &poc.cluster
                            : field == "key"     ? &poc.key
                            : field == "config"  ? &poc.config
                            : field == "variant" ? &poc.variant
                                                 : nullptr;
        if (!text && field != "case")
            return setError(error,
                            "unknown PoC field \"" + field + "\"");
        if (!seen.insert(field).second)
            return setError(error,
                            "duplicate PoC field \"" + field + "\"");
        std::string why;
        if (text)
            *text = std::move(value);
        else if (!bio::testCaseFromHex(value, poc.tc, why))
            return setError(error, "PoC case blob: " + why);
    }
    if (!saw_end)
        return setError(error, "missing PoC \"end\" terminator");
    if (!seen.count("case"))
        return setError(error, "PoC has no \"case\" field");
    if (poc.key.empty())
        return setError(error, "PoC has no \"key\" field");
    if (poc.config.empty())
        return setError(error, "PoC has no \"config\" field");
    if (poc.variant.empty())
        return setError(error, "PoC has no \"variant\" field");
    out = std::move(poc);
    return true;
}

std::string
pocFileName(const std::string &cluster_id)
{
    return cluster_id + ".dvzpoc";
}

} // namespace dejavuzz::triage
