/**
 * @file
 * Byte-addressable backing memory with per-byte taint, page
 * permissions, PMP-style secret protection, and an undo log.
 *
 * Each DUT instance owns one Memory (the dedicated region differs
 * between instances; everything else is identical). The undo log lets
 * the differential harness re-run one instance's cycle after learning
 * the sibling's control trace without copying the whole image.
 */

#ifndef DEJAVUZZ_SWAPMEM_MEMORY_HH
#define DEJAVUZZ_SWAPMEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ift/taint.hh"
#include "isa/exceptions.hh"
#include "swapmem/layout.hh"

namespace dejavuzz::swapmem {

/** How the secret block is architecturally protected right now. */
enum class SecretProt : uint8_t {
    Open,   ///< readable by U-mode (training phase / Spectre payloads)
    Pmp,    ///< PMP-denied => load access fault
    Pte,    ///< PTE-denied => load page fault
};

/** Kind of access being permission-checked. */
enum class AccessKind : uint8_t { Load, Store, Fetch };

/**
 * One DUT instance's physical image: a data byte and a taint byte per
 * address in [0, kMemBytes).
 *
 * Storage: both images come from one anonymous mapping that the OS
 * zero-fills and faults in page by page, so a Memory costs physical
 * memory only for the pages a run writes. A page whose dirty bit is
 * clear is all-zero in both images; reset(), copyFrom() and
 * zeroRange() rely on that and never touch clean pages. Memory is
 * neither copyable nor movable (use copyFrom()).
 */
class Memory
{
  public:
    Memory();
    ~Memory();
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Restore the pristine all-zero image, reusing the allocation.
     * Only pages dirtied since construction (or the previous reset)
     * are cleared, so a pooled Memory resets in proportion to the
     * previous run's write footprint rather than the image size.
     * Bit-identical to a freshly constructed Memory.
     */
    void reset();

    /**
     * Make this Memory bit-identical to @p other, reusing the
     * allocation. Cost is proportional to the union of the two dirty
     * footprints, not the image size: pages dirty here but clean in
     * @p other are zeroed; pages dirty in @p other are copied. Any
     * active undo log on this instance is dropped (the snapshot is a
     * confirmed state, not a speculative one).
     */
    void copyFrom(const Memory &other);

    // --- raw byte access (no permission checks) ------------------------
    uint8_t byte(uint64_t addr) const;
    void setByte(uint64_t addr, uint8_t value, bool tainted);

    /** Little-endian load of @p bytes (1/2/4/8) with taint. */
    ift::TV read(uint64_t addr, unsigned bytes) const;
    /** Little-endian store with per-byte taint derived from tv.t. */
    void write(uint64_t addr, unsigned bytes, ift::TV tv);

    /** 32-bit instruction fetch word. */
    uint32_t fetchWord(uint64_t addr) const;

    /**
     * Copy little-endian words in as untainted bytes (the swap runtime
     * packet loader). Bytes past the image are dropped. With an undo
     * log open, only bytes whose value or taint changes are logged.
     */
    void loadBlock(uint64_t addr, const uint32_t *words, size_t count);
    /**
     * Zero-fill a range, clearing taint as well; the range is clamped
     * to the image. Clean pages are skipped (they are already zero),
     * and with an undo log open only nonzero bytes are logged.
     */
    void zeroRange(uint64_t addr, uint64_t bytes);

    // --- permissions ----------------------------------------------------
    /**
     * Architectural permission check. Returns ExcCause::None when the
     * access is allowed for @p priv.
     */
    isa::ExcCause check(uint64_t addr, unsigned bytes, AccessKind kind,
                        isa::Priv priv) const;

    void setSecretProt(SecretProt prot) { secret_prot_ = prot; }
    SecretProt secretProt() const { return secret_prot_; }

    /**
     * Victim placement: when set, the secret block lives in a
     * supervisor page - any U-mode access page-faults independent of
     * the PMP-style secret protection (MeltdownSupervisor template).
     */
    void setVictimSupervisor(bool on) { victim_supervisor_ = on; }
    bool victimSupervisor() const { return victim_supervisor_; }

    /**
     * Double-fetch swap: XOR-mutate the secret bytes in place (via the
     * undo-covered byte store, so speculative rollback restores them).
     * Idempotent per swap generation - the flag makes replayed packet
     * loads after a Phase-3 fused reload apply the swap exactly once.
     */
    void applySecretSwap();
    void clearSecretSwap() { secret_swapped_ = false; }
    bool secretSwapped() const { return secret_swapped_; }

    /** Install the secret block (tainted bytes). */
    void installSecret(const uint8_t *data, size_t bytes);
    /** Write a mutable operand slot (untainted). */
    void setOperand(unsigned slot, uint64_t value);
    uint64_t operandAddr(unsigned slot) const;

    // --- undo log --------------------------------------------------------
    void beginUndo();
    void rollbackUndo();
    void discardUndo();

    bool inRange(uint64_t addr) const { return addr < kMemBytes; }

  private:
    struct UndoRec
    {
        uint32_t addr;
        uint8_t value;
        uint8_t taint;
    };

    void logByte(uint64_t addr);

    /** kMemBytes each, carved from one anonymous mapping. */
    uint8_t *data_ = nullptr;
    uint8_t *taint_ = nullptr;
    SecretProt secret_prot_ = SecretProt::Open;
    bool victim_supervisor_ = false;
    bool secret_swapped_ = false;
    bool undo_active_ = false;
    std::vector<UndoRec> undo_;
    /** One bit per page that may hold a nonzero data or taint byte;
     *  set by every write, cleared only by reset()/copyFrom(). */
    uint64_t dirty_pages_ = 0;
    static_assert(kMemBytes / kPageBytes <= 64,
                  "dirty-page mask is a single 64-bit word");
};

} // namespace dejavuzz::swapmem

#endif // DEJAVUZZ_SWAPMEM_MEMORY_HH
