/**
 * @file
 * Property and round-trip tests for the swappable-memory substrate:
 * instruction encode/decode (randomized round trips and
 * decode-stability over arbitrary words), address-space layout
 * invariants, swap-packet/schedule accounting, and the SwapRuntime's
 * packet loads + secret-permission transitions observed through the
 * backing memory, and a reference-model property suite that runs
 * seeded random operation sequences on Memory and on a naive per-byte
 * model of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "isa/encoding.hh"
#include "isa/instr.hh"
#include "swapmem/layout.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using isa::Instr;
using isa::Op;

// --- instruction encode/decode ------------------------------------------

/** Immediate shape of an operation (mirrors the RISC-V formats). */
enum class ImmKind {
    None,     ///< R-type / fixed encodings: imm must be 0
    I12,      ///< 12-bit signed
    S12,      ///< 12-bit signed (store split encoding)
    B13,      ///< 13-bit signed, even
    U20,      ///< 20-bit unsigned (LUI/AUIPC upper immediate)
    J21,      ///< 21-bit signed, even
    Shift64,  ///< [0, 63]
    Shift32,  ///< [0, 31]
    Csr12,    ///< 12-bit unsigned CSR number
};

struct OpSpec
{
    Op op;
    ImmKind imm;
};

/** Every encodable op with its immediate shape (ILLEGAL excluded —
 *  its encoding round-trips through `raw`, tested separately). */
const std::vector<OpSpec> &
opSpecs()
{
    static const std::vector<OpSpec> specs = {
        {Op::LUI, ImmKind::U20},      {Op::AUIPC, ImmKind::U20},
        {Op::JAL, ImmKind::J21},      {Op::JALR, ImmKind::I12},
        {Op::BEQ, ImmKind::B13},      {Op::BNE, ImmKind::B13},
        {Op::BLT, ImmKind::B13},      {Op::BGE, ImmKind::B13},
        {Op::BLTU, ImmKind::B13},     {Op::BGEU, ImmKind::B13},
        {Op::LB, ImmKind::I12},       {Op::LH, ImmKind::I12},
        {Op::LW, ImmKind::I12},       {Op::LD, ImmKind::I12},
        {Op::LBU, ImmKind::I12},      {Op::LHU, ImmKind::I12},
        {Op::LWU, ImmKind::I12},      {Op::SB, ImmKind::S12},
        {Op::SH, ImmKind::S12},       {Op::SW, ImmKind::S12},
        {Op::SD, ImmKind::S12},       {Op::ADDI, ImmKind::I12},
        {Op::SLTI, ImmKind::I12},     {Op::SLTIU, ImmKind::I12},
        {Op::XORI, ImmKind::I12},     {Op::ORI, ImmKind::I12},
        {Op::ANDI, ImmKind::I12},     {Op::SLLI, ImmKind::Shift64},
        {Op::SRLI, ImmKind::Shift64}, {Op::SRAI, ImmKind::Shift64},
        {Op::ADD, ImmKind::None},     {Op::SUB, ImmKind::None},
        {Op::SLL, ImmKind::None},     {Op::SLT, ImmKind::None},
        {Op::SLTU, ImmKind::None},    {Op::XOR, ImmKind::None},
        {Op::SRL, ImmKind::None},     {Op::SRA, ImmKind::None},
        {Op::OR, ImmKind::None},      {Op::AND, ImmKind::None},
        {Op::ADDIW, ImmKind::I12},    {Op::SLLIW, ImmKind::Shift32},
        {Op::SRLIW, ImmKind::Shift32},
        {Op::SRAIW, ImmKind::Shift32},
        {Op::ADDW, ImmKind::None},    {Op::SUBW, ImmKind::None},
        {Op::SLLW, ImmKind::None},    {Op::SRLW, ImmKind::None},
        {Op::SRAW, ImmKind::None},    {Op::MUL, ImmKind::None},
        {Op::MULH, ImmKind::None},    {Op::MULHU, ImmKind::None},
        {Op::DIV, ImmKind::None},     {Op::DIVU, ImmKind::None},
        {Op::REM, ImmKind::None},     {Op::REMU, ImmKind::None},
        {Op::MULW, ImmKind::None},    {Op::DIVW, ImmKind::None},
        {Op::REMW, ImmKind::None},    {Op::FENCE, ImmKind::None},
        {Op::FENCE_I, ImmKind::None}, {Op::ECALL, ImmKind::None},
        {Op::EBREAK, ImmKind::None},  {Op::MRET, ImmKind::None},
        {Op::SRET, ImmKind::None},    {Op::CSRRW, ImmKind::Csr12},
        {Op::CSRRS, ImmKind::Csr12},  {Op::CSRRC, ImmKind::Csr12},
        {Op::FLD, ImmKind::I12},      {Op::FSD, ImmKind::S12},
        {Op::FADD_D, ImmKind::None},  {Op::FSUB_D, ImmKind::None},
        {Op::FMUL_D, ImmKind::None},  {Op::FDIV_D, ImmKind::None},
        {Op::FMV_X_D, ImmKind::None}, {Op::FMV_D_X, ImmKind::None},
        {Op::SWAPNEXT, ImmKind::I12},
    };
    return specs;
}

int64_t
randomImm(Rng &rng, ImmKind kind)
{
    switch (kind) {
      case ImmKind::None:
        return 0;
      case ImmKind::I12:
      case ImmKind::S12:
        return static_cast<int64_t>(rng.below(1u << 12)) - 2048;
      case ImmKind::B13:
        return (static_cast<int64_t>(rng.below(1u << 13)) - 4096) &
               ~int64_t{1};
      case ImmKind::U20:
        return static_cast<int64_t>(rng.below(1u << 20));
      case ImmKind::J21:
        return (static_cast<int64_t>(rng.below(1u << 21)) -
                (1 << 20)) &
               ~int64_t{1};
      case ImmKind::Shift64:
        return static_cast<int64_t>(rng.below(64));
      case ImmKind::Shift32:
        return static_cast<int64_t>(rng.below(32));
      case ImmKind::Csr12:
        return static_cast<int64_t>(rng.below(1u << 12));
    }
    return 0;
}

/** A random instruction whose field population matches what the
 *  decoder's normalization produces (unused registers zero). */
Instr
randomInstr(Rng &rng, const OpSpec &spec)
{
    Instr instr;
    instr.op = spec.op;
    const bool uses_rd =
        isa::writesIntRd(spec.op) || isa::fpRd(spec.op);
    const bool uses_rs1 =
        isa::readsIntRs1(spec.op) || isa::fpRs1(spec.op);
    const bool uses_rs2 =
        isa::readsIntRs2(spec.op) || isa::fpRs2(spec.op);
    instr.rd = uses_rd ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.rs1 = uses_rs1 ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.rs2 = uses_rs2 ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.imm = randomImm(rng, spec.imm);
    return instr;
}

TEST(IsaEncoding, RandomizedEncodeDecodeRoundTrip)
{
    Rng rng(0xe9c0de);
    const auto &specs = opSpecs();
    for (int trial = 0; trial < 4000; ++trial) {
        const OpSpec &spec = rng.pick(specs);
        const Instr instr = randomInstr(rng, spec);
        const uint32_t word = isa::encode(instr);
        const Instr decoded = isa::decode(word);
        EXPECT_TRUE(decoded == instr)
            << "op " << isa::mnemonic(spec.op) << ": "
            << isa::disasm(instr) << " decoded as "
            << isa::disasm(decoded);
        EXPECT_EQ(decoded.raw, word);
    }
}

TEST(IsaEncoding, DecodeIsStableOverArbitraryWords)
{
    // decode() is total: any 32-bit word yields an instruction, and
    // one re-encode reaches a fixed point — decode(encode(i)) == i
    // and encode(decode(encode(i))) == encode(i).
    Rng rng(0xdec0de5);
    unsigned legal = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const auto word = static_cast<uint32_t>(rng.next());
        const Instr first = isa::decode(word);
        const uint32_t reencoded = isa::encode(first);
        const Instr second = isa::decode(reencoded);
        EXPECT_TRUE(second == first)
            << "word " << word << " decode not stable";
        EXPECT_EQ(isa::encode(second), reencoded);
        legal += first.op != Op::ILLEGAL;
    }
    // The property must not hold vacuously on an all-illegal sample.
    EXPECT_GT(legal, 100u);
}

TEST(IsaEncoding, IllegalWordsRoundTripThroughRaw)
{
    const Instr illegal = isa::decode(isa::kIllegalWord);
    EXPECT_EQ(illegal.op, Op::ILLEGAL);
    EXPECT_EQ(isa::encode(illegal), isa::kIllegalWord);

    // Any undecodable word is preserved bit-exactly via `raw`.
    Rng rng(0x111e9a1);
    for (int trial = 0; trial < 5000; ++trial) {
        const auto word = static_cast<uint32_t>(rng.next());
        const Instr decoded = isa::decode(word);
        if (decoded.op == Op::ILLEGAL)
            EXPECT_EQ(isa::encode(decoded), word);
    }
}

TEST(IsaEncoding, CanonicalNop)
{
    const Instr nop = isa::decode(isa::kNopWord);
    EXPECT_EQ(nop.op, Op::ADDI);
    EXPECT_EQ(nop.rd, 0);
    EXPECT_EQ(nop.rs1, 0);
    EXPECT_EQ(nop.imm, 0);
    EXPECT_EQ(isa::encode(nop), isa::kNopWord);
}

// --- address-space layout invariants ------------------------------------

TEST(SwapLayout, RegionsArePageAlignedDisjointAndInRange)
{
    using namespace swapmem;
    struct Region
    {
        const char *name;
        uint64_t base;
        uint64_t size;
    };
    const Region regions[] = {
        {"shared", kSharedBase, kSharedSize},
        {"swappable", kSwapBase, kSwapSize},
        {"dedicated", kDedicatedBase, kDedicatedSize},
        {"data", kDataBase, kDataSize},
    };
    for (const Region &region : regions) {
        EXPECT_EQ(region.base % kPageBytes, 0u)
            << region.name << " base not page-aligned";
        EXPECT_EQ(region.size % kPageBytes, 0u)
            << region.name << " size not page-granular";
        EXPECT_LE(region.base + region.size, kMemBytes)
            << region.name << " exceeds the physical image";
        EXPECT_GT(region.size, 0u);
    }
    for (const Region &a : regions) {
        for (const Region &b : regions) {
            if (a.base == b.base)
                continue;
            const bool disjoint = a.base + a.size <= b.base ||
                                  b.base + b.size <= a.base;
            EXPECT_TRUE(disjoint)
                << a.name << " overlaps " << b.name;
        }
    }
}

TEST(SwapLayout, BlocksSitInsideTheirRegions)
{
    using namespace swapmem;
    EXPECT_GE(kSecretAddr, kDedicatedBase);
    EXPECT_LE(kSecretAddr + kSecretBytes,
              kDedicatedBase + kDedicatedSize);
    EXPECT_GE(kOperandAddr, kDedicatedBase);
    EXPECT_LE(kOperandAddr + kOperandBytes,
              kDedicatedBase + kDedicatedSize);
    // Secret and operand blocks must not overlap.
    EXPECT_LE(kSecretAddr + kSecretBytes, kOperandAddr);

    EXPECT_GE(kLeakArrayAddr, kDataBase);
    EXPECT_LE(kLeakArrayAddr + kLeakArrayBytes, kDataBase + kDataSize);
    EXPECT_GE(kScratchAddr, kDataBase);
    EXPECT_LE(kScratchAddr + kScratchBytes, kDataBase + kDataSize);
    EXPECT_LE(kLeakArrayAddr + kLeakArrayBytes, kScratchAddr);

    EXPECT_GE(kTrapVector, kSharedBase);
    EXPECT_LT(kTrapVector, kSharedBase + kSharedSize);
    EXPECT_GE(kResetVector, kSharedBase);
    EXPECT_LT(kResetVector, kSharedBase + kSharedSize);

    // The unmapped hole really is outside every mapped region but
    // inside the physical image.
    EXPECT_EQ(kUnmappedAddr, kDataBase + kDataSize);
    EXPECT_LT(kUnmappedAddr, kMemBytes);
}

// --- swap packets and schedules -----------------------------------------

swapmem::SwapPacket
makePacket(swapmem::PacketKind kind, std::vector<Instr> instrs,
           const char *label)
{
    swapmem::SwapPacket packet;
    packet.label = label;
    packet.kind = kind;
    packet.instrs = std::move(instrs);
    return packet;
}

Instr
nop()
{
    return isa::decode(isa::kNopWord);
}

TEST(SwapSchedule, OverheadAccountingAndReduction)
{
    using swapmem::PacketKind;
    swapmem::SwapSchedule schedule;
    schedule.packets = {
        makePacket(PacketKind::TriggerTrain,
                   {Instr{Op::ADDI, 5, 6, 0, 1, 0}, nop(), nop()},
                   "t0"),
        makePacket(PacketKind::WindowTrain,
                   {Instr{Op::LD, 10, 11, 0, 8, 0}, nop()}, "w0"),
        makePacket(PacketKind::Transient,
                   {Instr{Op::LD, 12, 13, 0, 0, 0},
                    Instr{Op::SWAPNEXT, 0, 0, 0, 0, 0}},
                   "x"),
    };

    EXPECT_EQ(schedule.transientIndex(), 2u);
    // TO counts every training instruction, ETO only non-nops; the
    // transient packet never counts toward either.
    EXPECT_EQ(schedule.trainingOverhead(), 5u);
    EXPECT_EQ(schedule.effectiveTrainingOverhead(), 2u);

    const swapmem::SwapSchedule reduced = schedule.without(1);
    ASSERT_EQ(reduced.packets.size(), 2u);
    EXPECT_EQ(reduced.packets[0].label, "t0");
    EXPECT_EQ(reduced.packets[1].label, "x");
    EXPECT_EQ(reduced.transientIndex(), 1u);
    EXPECT_EQ(reduced.transient_prot, schedule.transient_prot);
    EXPECT_EQ(reduced.trainingOverhead(), 3u);
    // The original schedule is untouched.
    EXPECT_EQ(schedule.packets.size(), 3u);
}

TEST(SwapRuntime, PacketLoadsRoundTripThroughMemory)
{
    using swapmem::PacketKind;
    Rng rng(0x5aa9);
    const auto &specs = opSpecs();

    swapmem::SwapSchedule schedule;
    schedule.transient_prot = swapmem::SecretProt::Pmp;
    std::vector<std::vector<Instr>> expected;
    const PacketKind kinds[] = {PacketKind::TriggerTrain,
                                PacketKind::WindowTrain,
                                PacketKind::Transient};
    for (PacketKind kind : kinds) {
        std::vector<Instr> instrs;
        const size_t count = 1 + rng.below(16);
        for (size_t i = 0; i < count; ++i)
            instrs.push_back(randomInstr(rng, rng.pick(specs)));
        expected.push_back(instrs);
        schedule.packets.push_back(
            makePacket(kind, std::move(instrs), "pkt"));
    }

    swapmem::Memory mem;
    swapmem::SwapRuntime runtime(schedule);
    uint64_t entry = runtime.start(mem);
    EXPECT_EQ(entry, swapmem::kSwapBase);

    for (size_t p = 0; p < schedule.packets.size(); ++p) {
        ASSERT_FALSE(runtime.done());
        EXPECT_EQ(runtime.cursor(), p);
        // The loaded region holds the genuine RISC-V encodings:
        // fetching and decoding them recovers the packet bit-exactly.
        for (size_t i = 0; i < expected[p].size(); ++i) {
            const uint32_t word =
                mem.fetchWord(swapmem::kSwapBase + 4 * i);
            EXPECT_TRUE(isa::decode(word) == expected[p][i])
                << "packet " << p << " instr " << i;
        }
        // Words past the packet are zeroed by the reload.
        const uint32_t after = mem.fetchWord(
            swapmem::kSwapBase + 4 * expected[p].size());
        EXPECT_EQ(after, 0u);

        // The secret opens up for training and locks down exactly
        // when the transient packet is entered.
        const bool transient = schedule.packets[p].kind ==
                               PacketKind::Transient;
        EXPECT_EQ(mem.secretProt(),
                  transient ? swapmem::SecretProt::Pmp
                            : swapmem::SecretProt::Open)
            << "packet " << p;
        entry = runtime.advance(mem);
    }
    EXPECT_TRUE(runtime.done());
    EXPECT_EQ(entry, 0u);
}

// --- Memory against a per-byte reference model --------------------------

/**
 * Naive reference for swapmem::Memory: every bulk operation is a loop
 * of single-byte stores, each pushing one undo record while an undo
 * log is open. The bulk and undo-aware paths of Memory must be
 * indistinguishable from it through every accessor.
 */
struct RefMemory
{
    struct Rec
    {
        uint64_t addr;
        uint8_t value;
        uint8_t taint;
    };

    std::vector<uint8_t> data = std::vector<uint8_t>(swapmem::kMemBytes);
    std::vector<uint8_t> taint = std::vector<uint8_t>(swapmem::kMemBytes);
    swapmem::SecretProt prot = swapmem::SecretProt::Open;
    bool victim_supervisor = false;
    bool secret_swapped = false;
    bool undo_active = false;
    std::vector<Rec> undo;

    void
    setByte(uint64_t addr, uint8_t value, bool tainted)
    {
        if (addr >= swapmem::kMemBytes)
            return;
        if (undo_active)
            undo.push_back(Rec{addr, data[addr], taint[addr]});
        data[addr] = value;
        taint[addr] = tainted ? 1 : 0;
    }

    void
    write(uint64_t addr, unsigned bytes, ift::TV tv)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            setByte(addr + i, static_cast<uint8_t>(tv.v >> (8 * i)),
                    ((tv.t >> (8 * i)) & 0xff) != 0);
        }
    }

    void
    loadBlock(uint64_t addr, const std::vector<uint32_t> &words)
    {
        for (size_t i = 0; i < words.size(); ++i) {
            for (unsigned b = 0; b < 4; ++b) {
                setByte(addr + 4 * i + b,
                        static_cast<uint8_t>(words[i] >> (8 * b)), false);
            }
        }
    }

    void
    zeroRange(uint64_t addr, uint64_t bytes)
    {
        for (uint64_t i = 0; i < bytes; ++i)
            setByte(addr + i, 0, false);
    }

    void
    installSecret(const std::vector<uint8_t> &secret)
    {
        for (uint64_t i = 0; i < swapmem::kSecretBytes; ++i) {
            setByte(swapmem::kSecretAddr + i,
                    i < secret.size() ? secret[i] : 0, true);
        }
    }

    void
    applySecretSwap()
    {
        if (secret_swapped)
            return;
        for (uint64_t i = 0; i < swapmem::kSecretBytes; ++i) {
            const uint64_t addr = swapmem::kSecretAddr + i;
            setByte(addr, data[addr] ^ 0x5a, true);
        }
        secret_swapped = true;
    }

    void
    rollbackUndo()
    {
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
            data[it->addr] = it->value;
            taint[it->addr] = it->taint;
        }
        undo.clear();
        undo_active = false;
    }

    void
    reset()
    {
        std::fill(data.begin(), data.end(), 0);
        std::fill(taint.begin(), taint.end(), 0);
        prot = swapmem::SecretProt::Open;
        victim_supervisor = false;
        secret_swapped = false;
        undo_active = false;
        undo.clear();
    }

    void
    copyFrom(const RefMemory &other)
    {
        data = other.data;
        taint = other.taint;
        prot = other.prot;
        victim_supervisor = other.victim_supervisor;
        secret_swapped = other.secret_swapped;
        undo_active = false;
        undo.clear();
    }

    /** Little-endian value/taint of [addr, addr + bytes), like read(). */
    ift::TV
    read(uint64_t addr, unsigned bytes) const
    {
        ift::TV tv;
        for (unsigned i = 0; i < bytes; ++i) {
            const uint64_t a = addr + i;
            if (a >= swapmem::kMemBytes)
                continue;
            tv.v |= uint64_t{data[a]} << (8 * i);
            if (taint[a])
                tv.t |= 0xffULL << (8 * i);
        }
        return tv;
    }
};

/**
 * Every byte's value and taint, the protection flags, and a sample of
 * read/fetchWord results (including accesses straddling the end of
 * the image) agree between @p mem and @p ref.
 */
::testing::AssertionResult
sameImage(const swapmem::Memory &mem, const RefMemory &ref, Rng &rng)
{
    for (uint64_t a = 0; a < swapmem::kMemBytes; a += 8) {
        const ift::TV got = mem.read(a, 8);
        const ift::TV want = ref.read(a, 8);
        if (!(got == want)) {
            return ::testing::AssertionFailure()
                   << "bytes at 0x" << std::hex << a << ": value 0x"
                   << got.v << " taint 0x" << got.t << ", want value 0x"
                   << want.v << " taint 0x" << want.t;
        }
    }
    if (mem.secretProt() != ref.prot ||
        mem.victimSupervisor() != ref.victim_supervisor ||
        mem.secretSwapped() != ref.secret_swapped) {
        return ::testing::AssertionFailure() << "protection flags differ";
    }
    const unsigned sizes[] = {1, 2, 4, 8};
    for (int i = 0; i < 32; ++i) {
        const uint64_t a = rng.chance(1, 4)
                               ? swapmem::kMemBytes - 1 - rng.below(8)
                               : rng.below(swapmem::kMemBytes);
        const unsigned bytes = sizes[rng.below(4)];
        uint32_t word = 0;
        for (unsigned b = 0; b < 4; ++b) {
            word |= static_cast<uint32_t>(ref.read(a + b, 1).v)
                    << (8 * b);
        }
        if (!(mem.read(a, bytes) == ref.read(a, bytes)) ||
            mem.fetchWord(a) != word || mem.byte(a) != ref.read(a, 1).v) {
            return ::testing::AssertionFailure()
                   << "read/fetchWord at 0x" << std::hex << a << " differ";
        }
    }
    return ::testing::AssertionSuccess();
}

/** An address biased towards page, region and image boundaries. */
uint64_t
interestingAddr(Rng &rng)
{
    const uint64_t anchors[] = {
        swapmem::kSwapBase,       swapmem::kSwapBase + swapmem::kSwapSize,
        swapmem::kSecretAddr,     swapmem::kOperandAddr,
        swapmem::kDataBase,       swapmem::kMemBytes,
        swapmem::kSharedBase,     rng.below(swapmem::kMemBytes /
                                            swapmem::kPageBytes) *
                                      swapmem::kPageBytes,
    };
    switch (rng.below(3)) {
      case 0:
        return rng.below(swapmem::kMemBytes + 64);
      default: {
        const uint64_t anchor = anchors[rng.below(std::size(anchors))];
        const uint64_t offset = rng.below(64);
        return rng.chance(1, 2) ? anchor + offset
                                : anchor - std::min(anchor, offset);
      }
    }
}

/** A byte count from a few bytes up to several pages. */
uint64_t
interestingLength(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return rng.below(16);
      case 1:
        return rng.below(3 * swapmem::kPageBytes);
      case 2:
        return swapmem::kSwapSize;
      default:
        return rng.below(swapmem::kMemBytes);
    }
}

TEST(MemoryModel, RandomOperationSequencesMatchPerByteModel)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(0x3e30 + seed);
        swapmem::Memory mem[2];
        RefMemory ref[2];
        for (int step = 0; step < 300; ++step) {
            const unsigned lane = static_cast<unsigned>(rng.below(2));
            swapmem::Memory &m = mem[lane];
            RefMemory &r = ref[lane];
            std::string op;
            switch (rng.below(13)) {
              case 0: {
                const uint64_t a = interestingAddr(rng);
                const auto v = static_cast<uint8_t>(rng.next());
                const bool t = rng.chance(1, 3);
                m.setByte(a, v, t);
                r.setByte(a, v, t);
                op = "setByte";
                break;
              }
              case 1:
              case 2: {
                const uint64_t a = interestingAddr(rng);
                const unsigned sizes[] = {1, 2, 4, 8};
                const unsigned bytes = sizes[rng.below(4)];
                const ift::TV tv{rng.next(), rng.chance(1, 2)
                                                 ? rng.next()
                                                 : 0};
                m.write(a, bytes, tv);
                r.write(a, bytes, tv);
                op = "write";
                break;
              }
              case 3:
              case 4: {
                const uint64_t a = interestingAddr(rng);
                const uint64_t n = interestingLength(rng);
                m.zeroRange(a, n);
                r.zeroRange(a, n);
                op = "zeroRange";
                break;
              }
              case 5:
              case 6: {
                // Words that are zero, random, or the bytes already
                // there, so stores that change nothing are exercised.
                const uint64_t a = interestingAddr(rng);
                std::vector<uint32_t> words(
                    rng.below(3 * swapmem::kPageBytes / 4));
                for (size_t i = 0; i < words.size(); ++i) {
                    switch (rng.below(3)) {
                      case 0:
                        words[i] = 0;
                        break;
                      case 1:
                        words[i] = static_cast<uint32_t>(rng.next());
                        break;
                      default:
                        words[i] = static_cast<uint32_t>(
                            r.read(a + 4 * i, 4).v);
                        break;
                    }
                }
                m.loadBlock(a, words.data(), words.size());
                r.loadBlock(a, words);
                op = "loadBlock";
                break;
              }
              case 7: {
                std::vector<uint8_t> secret(
                    rng.below(swapmem::kSecretBytes + 1));
                for (auto &b : secret)
                    b = static_cast<uint8_t>(rng.next());
                m.installSecret(secret.data(), secret.size());
                r.installSecret(secret);
                op = "installSecret";
                break;
              }
              case 8:
                if (rng.chance(1, 3)) {
                    m.clearSecretSwap();
                    r.secret_swapped = false;
                }
                m.applySecretSwap();
                r.applySecretSwap();
                op = "applySecretSwap";
                break;
              case 9:
              case 10:
                if (!r.undo_active) {
                    m.beginUndo();
                    r.undo_active = true;
                    r.undo.clear();
                    op = "beginUndo";
                } else if (rng.chance(2, 3)) {
                    m.rollbackUndo();
                    r.rollbackUndo();
                    op = "rollbackUndo";
                } else {
                    m.discardUndo();
                    r.undo.clear();
                    r.undo_active = false;
                    op = "discardUndo";
                }
                break;
              case 11:
                if (rng.chance(1, 2)) {
                    m.reset();
                    r.reset();
                    op = "reset";
                } else {
                    const auto prot = static_cast<swapmem::SecretProt>(
                        rng.below(3));
                    m.setSecretProt(prot);
                    r.prot = prot;
                    const bool sup = rng.chance(1, 2);
                    m.setVictimSupervisor(sup);
                    r.victim_supervisor = sup;
                    op = "setSecretProt";
                }
                break;
              default:
                m.copyFrom(mem[1 - lane]);
                r.copyFrom(ref[1 - lane]);
                op = "copyFrom";
                break;
            }
            ASSERT_TRUE(sameImage(m, r, rng))
                << "seed " << seed << " step " << step << " lane "
                << lane << " after " << op;
        }
    }
}

TEST(MemoryModel, FreshAndResetImagesAreAllZero)
{
    Rng rng(0x2e5e7);
    RefMemory zero;
    swapmem::Memory fresh;
    ASSERT_TRUE(sameImage(fresh, zero, rng));

    // Dirty every region, under and outside an undo log, then reset:
    // the result must be indistinguishable from a fresh Memory.
    swapmem::Memory mem;
    const std::vector<uint8_t> secret(swapmem::kSecretBytes, 0xa5);
    mem.installSecret(secret.data(), secret.size());
    mem.setSecretProt(swapmem::SecretProt::Pte);
    mem.setVictimSupervisor(true);
    mem.applySecretSwap();
    const std::vector<uint32_t> words(2000, 0xdeadbeef);
    mem.loadBlock(swapmem::kSwapBase, words.data(), words.size());
    mem.beginUndo();
    for (int i = 0; i < 500; ++i) {
        mem.write(rng.below(swapmem::kMemBytes), 8,
                  ift::TV{rng.next(), rng.next()});
    }
    mem.zeroRange(swapmem::kSwapBase + 100, 1000);
    mem.reset();
    EXPECT_TRUE(sameImage(mem, zero, rng));

    // copyFrom a fresh image clears everything too.
    mem.loadBlock(swapmem::kMemBytes - 64, words.data(), words.size());
    mem.copyFrom(fresh);
    EXPECT_TRUE(sameImage(mem, zero, rng));
}

TEST(MemoryModel, PacketLoadsUnderUndoRollBackExactly)
{
    // Packet loads over a swap region holding stale, partly tainted
    // bytes: with an undo log open they must leave the same image as
    // without one, and rolling the log back must restore the image
    // from before the loads, bit for bit.
    using swapmem::PacketKind;
    Rng rng(0x0dd0);
    const auto &specs = opSpecs();
    swapmem::SwapSchedule schedule;
    for (PacketKind kind : {PacketKind::TriggerTrain,
                            PacketKind::Transient}) {
        std::vector<Instr> instrs;
        const size_t count = 1 + rng.below(200);
        for (size_t i = 0; i < count; ++i)
            instrs.push_back(randomInstr(rng, rng.pick(specs)));
        schedule.packets.push_back(
            makePacket(kind, std::move(instrs), "pkt"));
    }

    swapmem::Memory plain, undone, before;
    std::vector<uint32_t> junk(swapmem::kSwapSize / 4);
    for (auto &word : junk)
        word = static_cast<uint32_t>(rng.next()) | 1;
    for (swapmem::Memory *mem : {&plain, &undone}) {
        mem->loadBlock(swapmem::kSwapBase, junk.data(), junk.size());
        Rng stale(7);
        for (int i = 0; i < 300; ++i) {
            mem->write(swapmem::kSwapBase +
                           stale.below(swapmem::kSwapSize - 8),
                       8, ift::TV{stale.next(), stale.next()});
        }
    }
    before.copyFrom(undone);

    swapmem::SwapRuntime a(schedule), b(schedule);
    a.start(plain);
    undone.beginUndo();
    b.start(undone);
    while (!a.done()) {
        a.advance(plain);
        b.advance(undone);
    }
    // Expected: the stale image with the swap region holding exactly
    // the last packet's words followed by zeros.
    RefMemory ref;
    for (uint64_t addr = 0; addr < swapmem::kMemBytes; addr += 8)
        ref.write(addr, 8, before.read(addr, 8));
    ref.zeroRange(swapmem::kSwapBase, swapmem::kSwapSize);
    std::vector<uint32_t> last;
    for (const Instr &instr : schedule.packets.back().instrs)
        last.push_back(isa::encode(instr));
    ref.loadBlock(swapmem::kSwapBase, last);
    ref.prot = schedule.transient_prot;
    Rng probe(1);
    EXPECT_TRUE(sameImage(plain, ref, probe));
    EXPECT_TRUE(sameImage(undone, ref, probe));

    // Protection flags are outside the undo log (the lockstep harness
    // restores them itself); every byte is inside it.
    undone.rollbackUndo();
    undone.setSecretProt(before.secretProt());
    RefMemory rolled;
    for (uint64_t addr = 0; addr < swapmem::kMemBytes; addr += 8)
        rolled.write(addr, 8, before.read(addr, 8));
    EXPECT_TRUE(sameImage(undone, rolled, probe));
}

} // namespace
} // namespace dejavuzz
