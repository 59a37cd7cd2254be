#include "swapmem/packet.hh"

#include <iterator>

#include "util/logging.hh"

namespace dejavuzz::swapmem {

const char *
packetKindName(PacketKind kind)
{
    switch (kind) {
      case PacketKind::TriggerTrain:
        return "trigger-train";
      case PacketKind::WindowTrain:
        return "window-train";
      case PacketKind::Transient:
        return "transient";
    }
    return "?";
}

size_t
SwapSchedule::transientIndex() const
{
    size_t found = packets.size();
    for (size_t i = 0; i < packets.size(); ++i) {
        if (packets[i].kind == PacketKind::Transient) {
            dv_assert(found == packets.size());
            found = i;
        }
    }
    dv_assert(found < packets.size());
    return found;
}

size_t
SwapSchedule::trainingOverhead() const
{
    size_t n = 0;
    for (const auto &packet : packets) {
        if (packet.kind != PacketKind::Transient)
            n += packet.size();
    }
    return n;
}

size_t
SwapSchedule::effectiveTrainingOverhead() const
{
    size_t n = 0;
    for (const auto &packet : packets) {
        if (packet.kind != PacketKind::Transient)
            n += packet.effectiveSize();
    }
    return n;
}

SwapSchedule
SwapSchedule::without(size_t packet_index) const
{
    dv_assert(packet_index < packets.size());
    dv_assert(packets[packet_index].kind != PacketKind::Transient);
    SwapSchedule reduced;
    reduced.transient_prot = transient_prot;
    reduced.victim_supervisor = victim_supervisor;
    reduced.double_fetch = double_fetch;
    for (size_t i = 0; i < packets.size(); ++i) {
        if (i != packet_index)
            reduced.packets.push_back(packets[i]);
    }
    return reduced;
}

uint64_t
SwapRuntime::start(Memory &mem)
{
    dv_assert(!started_);
    started_ = true;
    cursor_ = 0;
    if (done())
        return 0;
    loadCurrent(mem);
    return current().entry;
}

const SwapPacket &
SwapRuntime::current() const
{
    dv_assert(!done());
    return schedule_->packets[cursor_];
}

uint64_t
SwapRuntime::advance(Memory &mem)
{
    dv_assert(started_ && !done());
    ++cursor_;
    if (done())
        return 0;
    loadCurrent(mem);
    return current().entry;
}

void
SwapRuntime::loadCurrent(Memory &mem)
{
    const SwapPacket &packet = current();
    const uint64_t packet_bytes = 4 * packet.instrs.size();
    dv_assert(packet_bytes <= kSwapSize);
    // Zero only the region's tail: the packet overwrites the rest,
    // so no byte is stored (or undo-logged) twice.
    mem.zeroRange(kSwapBase + packet_bytes, kSwapSize - packet_bytes);
    // Encode through a fixed stack buffer: a packet load allocates
    // nothing, whatever the packet length.
    uint32_t words[64];
    uint64_t addr = kSwapBase;
    size_t used = 0;
    for (const auto &instr : packet.instrs) {
        words[used++] = isa::encode(instr);
        if (used == std::size(words)) {
            mem.loadBlock(addr, words, used);
            addr += 4 * used;
            used = 0;
        }
    }
    mem.loadBlock(addr, words, used);

    // Update the secret's protection when entering the transient
    // packet (the paper updates permissions after all training).
    if (packet.kind == PacketKind::Transient) {
        mem.setSecretProt(schedule_->transient_prot);
        mem.setVictimSupervisor(schedule_->victim_supervisor);
        // Double-fetch: mutate the secret under the transient packet
        // while the training packets' cached copy stays stale (the
        // d-cache is deliberately not flushed across swaps).
        if (schedule_->double_fetch)
            mem.applySecretSwap();
    } else {
        mem.setSecretProt(SecretProt::Open);
        mem.setVictimSupervisor(false);
    }
}

} // namespace dejavuzz::swapmem
