#include "harness/dualsim.hh"

#include <cstring>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/wallguard.hh"

namespace dejavuzz::harness {

using swapmem::Memory;
using swapmem::SwapRuntime;
using swapmem::SwapSchedule;
using uarch::Core;
using uarch::TickEvents;

namespace {

/**
 * Tail hysteresis of a recorded trace store, in cycles. The seed
 * harness grew its per-cycle trace vector by 256 entries at a time,
 * so a diff pass outliving its sibling saw *empty* traces (structural
 * divergence => gates open) until the next 256-cycle boundary and no
 * trace (gates closed) beyond it. The preallocated store keeps that
 * boundary behaviour bit-identical.
 */
constexpr uint64_t kTraceTailQuantum = 256;

const ift::ControlTrace kEmptyTrace;

/**
 * True when every diffIFT gate of a tick that recorded @p mine would
 * resolve closed against @p sibling: the positional prefix of
 * @p sibling matches @p mine exactly. Extra sibling records beyond
 * mine's length are never consulted and cannot open a gate.
 */
bool
gatesAllClosed(const ift::ControlTrace &mine,
               const ift::ControlTrace &sibling)
{
    if (mine.size() > sibling.size())
        return false;
    // Word-wide prefix compare over the parallel sig/value arrays:
    // two memcmps replace the per-record loop on the hottest
    // comparison in the lockstep driver.
    // An empty trace matches trivially; its data pointers may be null,
    // which memcmp must not receive even for a zero length.
    size_t n = mine.size();
    if (n == 0)
        return true;
    return std::memcmp(mine.sigsData(), sibling.sigsData(),
                       n * sizeof(uint32_t)) == 0 &&
           std::memcmp(mine.valuesData(), sibling.valuesData(),
                       n * sizeof(uint64_t)) == 0;
}

/** Cycles after a divergence during which checkpoints are per-cycle
 *  (divergence clusters; per-cycle checkpoints make each further
 *  divergent cycle a single-tick redo instead of a replay). */
constexpr uint64_t kDivergenceHotWindow = 8;

} // namespace

const ift::ControlTrace *
DualSim::TraceStore::viewAt(uint64_t cycle) const
{
    if (cycle < used)
        return &per_cycle[cycle];
    uint64_t limit =
        used == 0
            ? 0
            : ((used - 1) / kTraceTailQuantum + 1) * kTraceTailQuantum;
    return cycle < limit ? &kEmptyTrace : nullptr;
}

DualSim::DualSim(const uarch::CoreConfig &config)
    : cfg_(config), lane0_(config), lane1_(config), ckpt_core_(config),
      fused0_(config), fused1_(config)
{}

void
DualSim::buildMemory(Memory &mem, const StimulusData &data,
                     bool flipped_secret) const
{
    auto secret = flipped_secret ? data.flippedSecret() : data.secret;
    mem.installSecret(secret.data(), secret.size());
    for (size_t i = 0; i < data.operands.size(); ++i)
        mem.setOperand(static_cast<unsigned>(i), data.operands[i]);
}

void
DualSim::startLane(LaneRun &lr, const StimulusData &data,
                   const SimOptions &options, bool flipped_secret)
{
    lr.result.reset();
    lr.lane.core.reset();
    lr.lane.mem.reset();
    buildMemory(lr.lane.mem, data, flipped_secret);
    uint64_t entry = lr.runtime.start(lr.lane.mem);
    if (lr.runtime.done()) {
        // Empty schedule: report only completion (no cycle counts,
        // hashes or sinks), matching the seed harness.
        lr.result.completed = true;
        lr.result.sinks.clear();
        lr.done = true;
        return;
    }
    lr.started = true;
    lr.lane.core.startSequence(entry);
    lr.result.packet_start.push_back(0);
    if (lr.lane.core.cycle() >= options.total_cycle_budget)
        lr.done = true;
}

/**
 * One cycle of one instance: arm the taint context, tick the core,
 * record the taint log and drive the swap runtime. Shared verbatim by
 * the single-pass, legacy 4-pass and lockstep drivers so the per-cycle
 * semantics cannot drift between strategies.
 */
void
DualSim::laneTick(LaneRun &lr, const SimOptions &options,
                  ift::IftMode mode, ift::ControlTrace *mine,
                  const ift::ControlTrace *other)
{
    // Cooperative batch/replay watchdog probe (one counter decrement
    // when no deadline is armed). Placing it on the per-cycle path
    // bounds even a single pathological simulation.
    util::WallGuard::check();

    ift::TaintCtx ctx;
    ctx.begin(mode, mine, other);
    TickEvents ev = lr.lane.core.tick(lr.lane.mem, ctx,
                                      &lr.result.trace);
    ++lr.packet_cycles;

    if (options.taint_log) {
        obs::SampledSpan taint_span(obs::Hist::ModuleTaintNs);
        lr.lane.core.appendTaintLog(lr.result.taint_log);
    }

    bool force_advance =
        lr.packet_cycles >= options.packet_cycle_budget;
    if (force_advance)
        lr.result.budget_exceeded = true;

    if (ev.swap_next || ev.trapped || force_advance) {
        uint64_t next_entry = lr.runtime.advance(lr.lane.mem);
        if (lr.runtime.done()) {
            lr.result.completed = true;
            lr.done = true;
            return;
        }
        lr.lane.core.flushICache();
        lr.lane.core.startSequence(next_entry);
        lr.result.packet_start.push_back(lr.lane.core.cycle());
        lr.packet_cycles = 0;
    }
    if (lr.lane.core.cycle() >= options.total_cycle_budget)
        lr.done = true;
}

void
DualSim::finishLane(LaneRun &lr, const SimOptions &options)
{
    lr.result.cycles = lr.lane.core.cycle();
    lr.result.contention = lr.lane.core.contention;
    lr.result.timing_hash = lr.lane.core.timingStateHash();
    lr.result.state_hash =
        fnv1a(lr.result.timing_hash,
              lr.lane.core.cachedDataHash(lr.lane.mem));
    if (options.sinks)
        lr.lane.core.enumSinks(lr.result.sinks);
    else
        lr.result.sinks.clear();
    obs::counterAdd(obs::Ctr::TaintTransitions,
                    lr.lane.core.taintTransitions() -
                        lr.taint_transitions_base);
}

void
DualSim::runOne(const SwapSchedule &schedule, const StimulusData &data,
                const SimOptions &options, bool flipped_secret,
                ift::IftMode mode, TraceStore *record,
                const TraceStore *sibling, Lane &lane, DutResult &out)
{
    LaneRun lr(lane, out, schedule);
    startLane(lr, data, options, flipped_secret);
    while (!lr.done) {
        uint64_t cycle = lane.core.cycle();
        ift::ControlTrace *mine =
            record != nullptr ? record->slot(cycle) : nullptr;
        const ift::ControlTrace *other =
            sibling != nullptr ? sibling->viewAt(cycle) : nullptr;
        laneTick(lr, options, mode, mine, other);
    }
    if (lr.started)
        finishLane(lr, options);
}

void
DualSim::runSingle(const SwapSchedule &schedule,
                   const StimulusData &data, const SimOptions &options,
                   DutResult &out)
{
    runOne(schedule, data, options, false, ift::IftMode::Off, nullptr,
           nullptr, lane0_, out);
    obs::counterAdd(obs::Ctr::Simulations);
}

DutResult
DualSim::runSingle(const SwapSchedule &schedule, const StimulusData &data,
                   const SimOptions &options)
{
    DutResult out;
    runSingle(schedule, data, options, out);
    return out;
}

void
DualSim::runDualFourPass(const SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out)
{
    // Value pass: record control traces (taints gated off by the
    // missing sibling, results of the taint shadow discarded).
    SimOptions value_options = options;
    value_options.taint_log = false;
    value_options.sinks = false;
    store_a_.prepare(options.total_cycle_budget);
    store_b_.prepare(options.total_cycle_budget);
    runOne(schedule, data, value_options, false, ift::IftMode::DiffIFT,
           &store_a_, nullptr, lane0_, scratch_result_);
    runOne(schedule, data, value_options, true, ift::IftMode::DiffIFT,
           &store_b_, nullptr, lane1_, scratch_result_);
    // Diff pass: every control gate consults the sibling's trace.
    runOne(schedule, data, options, false, ift::IftMode::DiffIFT,
           nullptr, &store_b_, lane0_, out.dut0);
    runOne(schedule, data, options, true, ift::IftMode::DiffIFT,
           nullptr, &store_a_, lane1_, out.dut1);
    out.sim_passes = 4;
    obs::counterAdd(obs::Ctr::Simulations, out.sim_passes);
}

/**
 * Lockstep co-simulation: both instances advance through the same
 * cycle in one loop iteration. Lane 0 runs the *record sub-tick*
 * (gates optimistically closed — the correct resolution whenever the
 * two instances' control traces for the cycle match) and lane 1 the
 * *taint sub-tick* (gating against lane 0's just-recorded trace,
 * which is exact because control traces are taint-independent). When
 * the two traces differ positionally, lane 0's closed-gate assumption
 * was wrong: roll lane 0 back to the last checkpoint (pooled Core
 * copy + memory undo log), replay the confirmed-convergent cycles
 * with closed gates, and redo the divergent cycle against lane 1's
 * trace. Divergence clusters inside transient windows, so checkpoints
 * are sparse (every kCheckpointInterval cycles) until a divergence
 * and per-cycle while one is hot.
 */
void
DualSim::runDualLockstep(const SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out,
                         bool allow_capture)
{
    store_a_.prepare(options.total_cycle_budget);
    store_b_.prepare(options.total_cycle_budget);

    LaneRun l0(lane0_, out.dut0, schedule);
    LaneRun l1(lane1_, out.dut1, schedule);
    startLane(l0, data, options, false);
    startLane(l1, data, options, true);
    lockstepLoop(l0, l1, options, allow_capture);
    out.sim_passes = 2;
}

void
DualSim::lockstepLoop(LaneRun &l0, LaneRun &l1, const SimOptions &options,
                      bool allow_capture)
{
    // Transient-packet index the fusion hook watches for; SIZE_MAX
    // disables capture (not armed, or already resuming a fused run).
    size_t fuse_at = allow_capture && fusion_sanitized_ != nullptr
                         ? fusion_sanitized_->transientIndex()
                         : SIZE_MAX;

    LaneMarks marks;
    SwapRuntime ckpt_runtime = l0.runtime;
    bool ckpt_valid = false;
    bool diverged_once = false;
    uint64_t last_divergence = 0;

    auto takeCheckpoint = [&]() {
        ckpt_core_ = l0.lane.core;
        ckpt_runtime = l0.runtime;
        if (ckpt_valid)
            l0.lane.mem.discardUndo();
        l0.lane.mem.beginUndo();
        marks.cycle = l0.lane.core.cycle();
        marks.packet_cycles = l0.packet_cycles;
        marks.secret_prot = l0.lane.mem.secretProt();
        marks.victim_supervisor = l0.lane.mem.victimSupervisor();
        marks.secret_swapped = l0.lane.mem.secretSwapped();
        marks.completed = l0.result.completed;
        marks.budget_exceeded = l0.result.budget_exceeded;
        marks.done = l0.done;
        marks.commits = l0.result.trace.commits.size();
        marks.squashes = l0.result.trace.squashes.size();
        marks.rob_io = l0.result.trace.rob_io.size();
        marks.taint_cycles = l0.result.taint_log.cycles.size();
        marks.packet_starts = l0.result.packet_start.size();
        ckpt_valid = true;
    };

    auto rollbackToCheckpoint = [&]() {
        l0.lane.core = ckpt_core_;
        l0.runtime = ckpt_runtime;
        l0.lane.mem.rollbackUndo();
        l0.lane.mem.setSecretProt(marks.secret_prot);
        l0.lane.mem.setVictimSupervisor(marks.victim_supervisor);
        if (!marks.secret_swapped)
            l0.lane.mem.clearSecretSwap();
        l0.lane.mem.beginUndo();
        l0.packet_cycles = marks.packet_cycles;
        l0.done = marks.done;
        l0.result.completed = marks.completed;
        l0.result.budget_exceeded = marks.budget_exceeded;
        l0.result.trace.commits.resize(marks.commits);
        l0.result.trace.squashes.resize(marks.squashes);
        l0.result.trace.rob_io.resize(marks.rob_io);
        l0.result.trace.cycles = marks.cycle;
        l0.result.taint_log.truncateCycles(marks.taint_cycles);
        l0.result.packet_start.resize(marks.packet_starts);
    };

    while (!l0.done && !l1.done) {
        uint64_t cycle = l0.lane.core.cycle(); // == lane 1's cycle
        bool hot = diverged_once &&
                   cycle - last_divergence <= kDivergenceHotWindow;
        if (hot)
            obs::counterAdd(obs::Ctr::HotCycles);
        if (!ckpt_valid || hot ||
            cycle - marks.cycle >= options.lockstep_checkpoint_interval) {
            takeCheckpoint();
            obs::counterAdd(obs::Ctr::Checkpoints);
        }

        // Record sub-tick: lane 0 with closed gates, trace recorded.
        ift::ControlTrace *rec0 = store_a_.slot(cycle);
        laneTick(l0, options, ift::IftMode::DiffIFT, rec0, nullptr);

        // Taint sub-tick: lane 1 gates against lane 0's trace for the
        // same cycle (and records its own for lane 0's redo).
        ift::ControlTrace *rec1 = store_b_.slot(cycle);
        laneTick(l1, options, ift::IftMode::DiffIFT, rec1, rec0);

        if (!gatesAllClosed(*rec0, *rec1)) {
            obs::ScopedSpan rollback_span(obs::Hist::RollbackNs);
            obs::counterAdd(obs::Ctr::Rollbacks);
            obs::counterAdd(obs::Ctr::RedoCycles,
                            cycle - marks.cycle + 1);
            diverged_once = true;
            last_divergence = cycle;
            rollbackToCheckpoint();
            // Replay the confirmed-convergent prefix: every replayed
            // cycle compared equal, so closed gates are exact.
            while (l0.lane.core.cycle() < cycle) {
                laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                         nullptr);
            }
            // Redo the divergent cycle against the sibling's trace.
            laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                     rec1);
        }

        // Fusion snapshot: both lanes' state at an iteration bottom
        // is confirmed (any divergence this cycle was just redone),
        // and the first time a swap cursor reaches the transient
        // packet it sits exactly at its start — the packet was
        // loaded at the end of this tick and none of its
        // instructions have been fetched yet.
        if (fuse_at != SIZE_MAX && !fusion_captured_ &&
            (l0.runtime.cursor() >= fuse_at ||
             l1.runtime.cursor() >= fuse_at)) {
            captureLane(fused0_, l0);
            captureLane(fused1_, l1);
            fusion_captured_ = true;
        }
    }
    if (ckpt_valid)
        l0.lane.mem.discardUndo();

    // Armed but the transient packet was never reached (a lane ran
    // out of budget while training): snapshot the exit state so the
    // fused run still skips the whole shared prefix.
    if (fuse_at != SIZE_MAX && !fusion_captured_) {
        captureLane(fused0_, l0);
        captureLane(fused1_, l1);
        fusion_captured_ = true;
    }

    // Solo tails: one instance outlived the other; it keeps gating
    // against the frozen sibling store, whose viewAt() tail semantics
    // match the legacy diff pass.
    while (!l0.done) {
        laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                 store_b_.viewAt(l0.lane.core.cycle()));
    }
    while (!l1.done) {
        laneTick(l1, options, ift::IftMode::DiffIFT, nullptr,
                 store_a_.viewAt(l1.lane.core.cycle()));
    }

    if (l0.started)
        finishLane(l0, options);
    if (l1.started)
        finishLane(l1, options);
}

void
DualSim::captureLane(FusedCapture &cap, const LaneRun &lr)
{
    cap.core = lr.lane.core;
    cap.mem.copyFrom(lr.lane.mem);
    cap.result = lr.result;
    cap.packet_cycles = lr.packet_cycles;
    cap.cursor = lr.runtime.cursor();
    cap.runtime_started = lr.runtime.started();
    cap.started = lr.started;
    cap.done = lr.done;
}

void
DualSim::restoreLane(const FusedCapture &cap, LaneRun &lr,
                     const SimOptions &options, size_t transient_index)
{
    lr.lane.core = cap.core;
    lr.lane.mem.copyFrom(cap.mem);
    lr.result = cap.result;
    // The snapshot was taken under the capturing run's options; a
    // fused run without taint logging must look like a run that
    // never logged (standalone bit-identity).
    if (!options.taint_log)
        lr.result.taint_log.clear();
    lr.runtime.resumeAt(cap.cursor, cap.runtime_started);
    lr.packet_cycles = cap.packet_cycles;
    lr.taint_transitions_base = cap.core.taintTransitions();
    lr.started = cap.started;
    lr.done = cap.done;
    // The snapshot's swap region holds the packet the *capturing*
    // schedule loaded; once the cursor is at (or past) the transient
    // packet that differs from this lane's sanitized schedule, so
    // reload it — same zero-fill + load + secret-protection sequence
    // the original advance performed, now with sanitized words.
    if (cap.runtime_started && !lr.runtime.done() &&
        cap.cursor >= transient_index) {
        lr.runtime.reload(lr.lane.mem);
    }
}

void
DualSim::runFusedPhase3(const SimOptions &options, DualResult &out)
{
    dv_assert(fusion_captured_ && fusion_sanitized_ != nullptr);
    size_t transient_index = fusion_sanitized_->transientIndex();
    LaneRun l0(lane0_, out.dut0, *fusion_sanitized_);
    LaneRun l1(lane1_, out.dut1, *fusion_sanitized_);
    restoreLane(fused0_, l0, options, transient_index);
    restoreLane(fused1_, l1, options, transient_index);
    // Prefix cycles this fused resume did not have to re-simulate.
    obs::counterAdd(obs::Ctr::FusedLaneCycles,
                    fused0_.core.cycle() + fused1_.core.cycle());
    lockstepLoop(l0, l1, options, false);
    out.sim_passes = 1;
    obs::counterAdd(obs::Ctr::Simulations, out.sim_passes);
    fusion_captured_ = false;
    fusion_sanitized_ = nullptr;
}

void
DualSim::runDual(const SwapSchedule &schedule, const StimulusData &data,
                 const SimOptions &options, DualResult &out)
{
    // Fusion arming is one-shot: this run either captures a snapshot
    // (lockstep DiffIFT) or the arming lapses, so a stale sanitized
    // pointer can never be consulted by a later, unrelated run.
    bool allow_capture = fusion_armed_;
    fusion_armed_ = false;
    fusion_captured_ = false;
    switch (options.mode) {
      case ift::IftMode::Off:
      case ift::IftMode::CellIFT:
      case ift::IftMode::DiffIFTFN:
        // No cross-instance information needed: single pass each.
        runOne(schedule, data, options, false, options.mode, nullptr,
               nullptr, lane0_, out.dut0);
        runOne(schedule, data, options, true, options.mode, nullptr,
               nullptr, lane1_, out.dut1);
        out.sim_passes = 2;
        obs::counterAdd(obs::Ctr::Simulations, out.sim_passes);
        return;
      case ift::IftMode::DiffIFT:
        runDualLockstep(schedule, data, options, out, allow_capture);
        obs::counterAdd(obs::Ctr::Simulations, out.sim_passes);
        return;
    }
    out.sim_passes = 0;
}

DualResult
DualSim::runDual(const SwapSchedule &schedule, const StimulusData &data,
                 const SimOptions &options)
{
    DualResult out;
    runDual(schedule, data, options, out);
    return out;
}

} // namespace dejavuzz::harness
