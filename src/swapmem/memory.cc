#include "swapmem/memory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "util/logging.hh"

namespace dejavuzz::swapmem {

using ift::TV;

static_assert(std::endian::native == std::endian::little,
              "loadBlock stores words as their in-memory bytes");

namespace {

constexpr size_t kImageBytes = 2 * kMemBytes; ///< data + taint

/** Dirty-mask bits of the pages overlapping [begin, end), begin < end. */
uint64_t
pageMask(uint64_t begin, uint64_t end)
{
    const uint64_t first = begin / kPageBytes;
    const uint64_t last = (end - 1) / kPageBytes;
    return (~0ULL >> (63 - last)) & (~0ULL << first);
}

/** End of [addr, addr + bytes) clamped to the image (<= addr: empty). */
uint64_t
clampEnd(uint64_t addr, uint64_t bytes)
{
    if (addr >= kMemBytes)
        return addr;
    return bytes < kMemBytes - addr ? addr + bytes : kMemBytes;
}

uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

} // namespace

Memory::Memory()
{
    // Anonymous pages read as zero and are faulted in on first write;
    // unlike calloc, this holds for every construction, not only for
    // the ones the allocator happens to serve from fresh pages.
    void *image = mmap(nullptr, kImageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (image == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint8_t *>(image);
    taint_ = data_ + kMemBytes;
}

Memory::~Memory()
{
    munmap(data_, kImageBytes);
}

void
Memory::reset()
{
    uint64_t dirty = dirty_pages_;
    while (dirty != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(dirty));
        dirty &= dirty - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memset(data_ + base, 0, kPageBytes);
        std::memset(taint_ + base, 0, kPageBytes);
    }
    dirty_pages_ = 0;
    secret_prot_ = SecretProt::Open;
    victim_supervisor_ = false;
    secret_swapped_ = false;
    undo_active_ = false;
    undo_.clear();
}

void
Memory::copyFrom(const Memory &other)
{
    uint64_t stale = dirty_pages_ & ~other.dirty_pages_;
    while (stale != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(stale));
        stale &= stale - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memset(data_ + base, 0, kPageBytes);
        std::memset(taint_ + base, 0, kPageBytes);
    }
    uint64_t live = other.dirty_pages_;
    while (live != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(live));
        live &= live - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memcpy(data_ + base, other.data_ + base, kPageBytes);
        std::memcpy(taint_ + base, other.taint_ + base, kPageBytes);
    }
    dirty_pages_ = other.dirty_pages_;
    secret_prot_ = other.secret_prot_;
    victim_supervisor_ = other.victim_supervisor_;
    secret_swapped_ = other.secret_swapped_;
    undo_active_ = false;
    undo_.clear();
}

uint8_t
Memory::byte(uint64_t addr) const
{
    return addr < kMemBytes ? data_[addr] : 0;
}

void
Memory::setByte(uint64_t addr, uint8_t value, bool tainted)
{
    if (addr >= kMemBytes)
        return;
    if (undo_active_)
        logByte(addr);
    dirty_pages_ |= 1ULL << (addr / kPageBytes);
    data_[addr] = value;
    taint_[addr] = tainted ? 1 : 0;
}

TV
Memory::read(uint64_t addr, unsigned bytes) const
{
    TV tv;
    for (unsigned i = 0; i < bytes; ++i) {
        uint64_t a = addr + i;
        if (a >= kMemBytes)
            continue;
        tv.v |= static_cast<uint64_t>(data_[a]) << (8 * i);
        if (taint_[a])
            tv.t |= 0xffULL << (8 * i);
    }
    return tv;
}

void
Memory::write(uint64_t addr, unsigned bytes, TV tv)
{
    for (unsigned i = 0; i < bytes; ++i) {
        uint64_t a = addr + i;
        if (a >= kMemBytes)
            continue;
        bool byte_tainted = ((tv.t >> (8 * i)) & 0xff) != 0;
        setByte(a, static_cast<uint8_t>(tv.v >> (8 * i)), byte_tainted);
    }
}

uint32_t
Memory::fetchWord(uint64_t addr) const
{
    uint32_t word = 0;
    for (unsigned i = 0; i < 4; ++i) {
        uint64_t a = addr + i;
        if (a < kMemBytes)
            word |= static_cast<uint32_t>(data_[a]) << (8 * i);
    }
    return word;
}

void
Memory::logByte(uint64_t addr)
{
    undo_.push_back(UndoRec{static_cast<uint32_t>(addr), data_[addr],
                            taint_[addr]});
}

void
Memory::loadBlock(uint64_t addr, const uint32_t *words, size_t count)
{
    const uint64_t end = clampEnd(addr, 4 * uint64_t{count});
    if (end <= addr)
        return;
    const uint8_t *src = reinterpret_cast<const uint8_t *>(words);
    dirty_pages_ |= pageMask(addr, end);
    if (!undo_active_) {
        std::memcpy(data_ + addr, src, end - addr);
        std::memset(taint_ + addr, 0, end - addr);
        return;
    }
    // A byte that already holds its new value, untainted, needs
    // neither a store nor an undo record.
    for (uint64_t a = addr; a < end; a += 8) {
        const uint64_t n = std::min<uint64_t>(8, end - a);
        const uint8_t *from = src + (a - addr);
        if (n == 8 && load64(data_ + a) == load64(from) &&
            load64(taint_ + a) == 0) {
            continue;
        }
        for (uint64_t i = 0; i < n; ++i) {
            if (data_[a + i] != from[i] || taint_[a + i] != 0) {
                logByte(a + i);
                data_[a + i] = from[i];
                taint_[a + i] = 0;
            }
        }
    }
}

void
Memory::zeroRange(uint64_t addr, uint64_t bytes)
{
    const uint64_t end = clampEnd(addr, bytes);
    if (end <= addr)
        return;
    // Clean pages are already zero; zeroing never dirties a page.
    uint64_t dirty = dirty_pages_ & pageMask(addr, end);
    while (dirty != 0) {
        const uint64_t page = std::countr_zero(dirty);
        dirty &= dirty - 1;
        const uint64_t lo = std::max(addr, page * kPageBytes);
        const uint64_t hi = std::min(end, (page + 1) * kPageBytes);
        if (!undo_active_) {
            std::memset(data_ + lo, 0, hi - lo);
            std::memset(taint_ + lo, 0, hi - lo);
            continue;
        }
        // Only nonzero bytes change, so only they are logged.
        for (uint64_t a = lo; a < hi; a += 8) {
            const uint64_t n = std::min<uint64_t>(8, hi - a);
            if (n == 8 && (load64(data_ + a) | load64(taint_ + a)) == 0)
                continue;
            for (uint64_t b = a; b < a + n; ++b) {
                if ((data_[b] | taint_[b]) != 0) {
                    logByte(b);
                    data_[b] = 0;
                    taint_[b] = 0;
                }
            }
        }
    }
}

isa::ExcCause
Memory::check(uint64_t addr, unsigned bytes, AccessKind kind,
              isa::Priv priv) const
{
    using isa::ExcCause;

    // Alignment first (both evaluated cores trap on misalignment).
    if (bytes > 1 && (addr % bytes) != 0) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAddrMisaligned;
          case AccessKind::Store:
            return ExcCause::StoreAddrMisaligned;
          case AccessKind::Fetch:
            return ExcCause::InstrAddrMisaligned;
        }
    }

    // Secret-block protection (checked before the generic map so the
    // two protection flavours produce distinct causes).
    uint64_t end = addr + bytes;
    bool hits_secret =
        addr < kSecretAddr + kSecretBytes && end > kSecretAddr;
    if (hits_secret && priv != isa::Priv::M) {
        // Supervisor victim placement dominates the PMP-style secret
        // protection: the page walk fails before any PMP check.
        if (victim_supervisor_) {
            return kind == AccessKind::Store
                       ? ExcCause::StorePageFault
                       : ExcCause::LoadPageFault;
        }
        if (secret_prot_ == SecretProt::Pmp) {
            return kind == AccessKind::Store
                       ? ExcCause::StoreAccessFault
                       : ExcCause::LoadAccessFault;
        }
        if (secret_prot_ == SecretProt::Pte) {
            return kind == AccessKind::Store
                       ? ExcCause::StorePageFault
                       : ExcCause::LoadPageFault;
        }
    }

    // PMP guard block: denied below M mode regardless of the secret
    // protection state.
    bool hits_guard =
        addr < kPmpGuardAddr + kPmpGuardBytes && end > kPmpGuardAddr;
    if (hits_guard && priv != isa::Priv::M) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAccessFault;
          case AccessKind::Store:
            return ExcCause::StoreAccessFault;
          case AccessKind::Fetch:
            return ExcCause::InstrAccessFault;
        }
    }

    // Out of the physical image => access fault.
    if (end > kMemBytes || end < addr) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAccessFault;
          case AccessKind::Store:
            return ExcCause::StoreAccessFault;
          case AccessKind::Fetch:
            return ExcCause::InstrAccessFault;
        }
    }

    // Mapped-region check: everything below kMemBytes is mapped except
    // the deliberate holes used to generate page faults (the null page
    // below the shared region and the tail hole above the data region).
    bool in_hole = addr >= kUnmappedAddr || addr < kSharedBase;
    if (in_hole) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadPageFault;
          case AccessKind::Store:
            return ExcCause::StorePageFault;
          case AccessKind::Fetch:
            return ExcCause::InstrPageFault;
        }
    }

    // The shared (firmware) region is not writable from U mode.
    if (kind == AccessKind::Store && priv == isa::Priv::U &&
        addr >= kSharedBase && addr < kSharedBase + kSharedSize) {
        return ExcCause::StoreAccessFault;
    }

    return ExcCause::None;
}

void
Memory::applySecretSwap()
{
    if (secret_swapped_)
        return;
    for (uint64_t i = 0; i < kSecretBytes; ++i) {
        uint64_t addr = kSecretAddr + i;
        setByte(addr, static_cast<uint8_t>(data_[addr] ^ 0x5a), true);
    }
    secret_swapped_ = true;
}

void
Memory::installSecret(const uint8_t *data, size_t bytes)
{
    dv_assert(bytes <= kSecretBytes);
    for (size_t i = 0; i < kSecretBytes; ++i) {
        uint8_t value = i < bytes ? data[i] : 0;
        setByte(kSecretAddr + i, value, true);
    }
}

void
Memory::setOperand(unsigned slot, uint64_t value)
{
    uint64_t addr = operandAddr(slot);
    dv_assert(addr + 8 <= kOperandAddr + kOperandBytes);
    write(addr, 8, TV{value, 0});
}

uint64_t
Memory::operandAddr(unsigned slot) const
{
    return kOperandAddr + 8ULL * slot;
}

void
Memory::beginUndo()
{
    dv_assert(!undo_active_);
    undo_active_ = true;
    undo_.clear();
}

void
Memory::rollbackUndo()
{
    dv_assert(undo_active_);
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        data_[it->addr] = it->value;
        taint_[it->addr] = it->taint;
    }
    undo_.clear();
    undo_active_ = false;
}

void
Memory::discardUndo()
{
    dv_assert(undo_active_);
    undo_.clear();
    undo_active_ = false;
}

} // namespace dejavuzz::swapmem
