/**
 * @file
 * The differential testbench (paper §3.3, §5).
 *
 * Two identical DUT instances execute the same swap schedule with
 * different secrets. diffIFT needs each instance's control-signal
 * values compared against the sibling's for the same cycle; because
 * taint never feeds back into architectural values, the control
 * trace an instance records is independent of how its taint gates
 * resolve, which admits two equivalent evaluation strategies:
 *
 *  - **Lockstep co-simulation** (runDual): both instances advance in
 *    one interleaved loop. Each cycle, instance 0 ticks first as a
 *    *record sub-tick* — gates optimistically closed, control trace
 *    recorded — then instance 1 runs its *taint sub-tick*, gating
 *    against instance 0's just-recorded trace. If the two traces for
 *    the cycle differ positionally, instance 0's closed-gate
 *    assumption was wrong and the harness rolls it back to the last
 *    checkpoint (pooled Core copy + memory undo log), replays the
 *    confirmed-convergent cycles, and redoes the divergent cycle
 *    against instance 1's trace. DiffIFT costs ~2 core simulations.
 *
 *  - **Legacy 4-pass** (runDualFourPass): a value pass per instance
 *    records the control traces, then a diff pass per instance
 *    replays against the sibling's trace. 4 full core simulations;
 *    kept only as the reference oracle that the equivalence suite
 *    and bench_dualsim compare the lockstep driver against.
 *
 * CellIFT / FN / Off modes need no sibling information and run in a
 * single pass per instance. All per-run state (cores, memories,
 * trace stores, result buffers) is pooled inside DualSim, so the
 * steady-state iteration loop performs no allocation.
 *
 * **Phase-3 lane fusion.** The Phase-3 sanitized run executes the
 * same schedule as Phase 2 with the transient packet's encode
 * instructions nop'd out — and packets only reach memory when the
 * swap runtime loads them, so the two runs are cycle-for-cycle
 * identical until the transient packet is loaded. When a phase
 * driver arms fusion (armFusion) with the sanitized schedule, the
 * lockstep loop snapshots both lanes at the first confirmed point
 * where either swap cursor reaches the transient packet (always
 * before any transient instruction is fetched: the load happens at
 * the end of the triggering tick and fetch resumes next tick).
 * runFusedPhase3 then restores the snapshot, rewrites the swap
 * region with the sanitized transient packet, and runs only the
 * post-transient suffix — bit-identical to a standalone sanitized
 * run (CI-enforced) at a fraction of its cost, collapsing a fuzzer
 * iteration from 2+1 full simulations toward 2.
 */

#ifndef DEJAVUZZ_HARNESS_DUALSIM_HH
#define DEJAVUZZ_HARNESS_DUALSIM_HH

#include <cstdint>
#include <vector>

#include "harness/stimulus.hh"
#include "ift/liveness.hh"
#include "ift/policy.hh"
#include "ift/taintlog.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "uarch/tracelog.hh"

namespace dejavuzz::harness {

/** Per-run limits and switches. */
struct SimOptions
{
    ift::IftMode mode = ift::IftMode::Off;
    bool taint_log = false;
    bool sinks = false;
    /**
     * Checkpoint cadence of the lockstep redo protocol while
     * execution is convergent, in cycles. Purely a time/space
     * trade-off — results are bit-identical for any value ≥ 1. The
     * equivalence suite sweeps it to stress the rollback/replay path.
     */
    uint64_t lockstep_checkpoint_interval = 32;
    uint64_t packet_cycle_budget = 1500;
    uint64_t total_cycle_budget = 20000;
};

/** Result of one DUT instance's run. */
struct DutResult
{
    uarch::TraceLog trace;
    ift::TaintLog taint_log;
    bool completed = false;      ///< schedule ran to the end
    bool budget_exceeded = false;
    uint64_t cycles = 0;
    uarch::ContentionCounters contention;
    std::vector<ift::SinkSnapshot> sinks;
    uint64_t timing_hash = 0;
    /** timing_hash folded with cached data (SpecDoctor's oracle). */
    uint64_t state_hash = 0;
    /** Cycle at which each packet started executing. */
    std::vector<uint64_t> packet_start;

    /**
     * Clear for reuse, keeping every vector's capacity. `sinks` is
     * deliberately left alone: the sink writer overwrites it in place
     * (or the harness clears it when sinks are disabled).
     */
    void
    reset()
    {
        trace.clear();
        taint_log.clear();
        completed = false;
        budget_exceeded = false;
        cycles = 0;
        contention = uarch::ContentionCounters{};
        timing_hash = 0;
        state_hash = 0;
        packet_start.clear();
    }
};

/** Result of a dual (differential) run. */
struct DualResult
{
    DutResult dut0; ///< original secret
    DutResult dut1; ///< flipped secret
    /** Full core simulations this run cost (2 lockstep, 4 legacy). */
    unsigned sim_passes = 0;
};

class DualSim
{
  public:
    explicit DualSim(const uarch::CoreConfig &config);

    /**
     * Single-instance run with IFT off: the cheap mode Phase 1 uses
     * for window-trigger evaluation and training reduction. Writes
     * into @p out, reusing its buffers.
     */
    void runSingle(const swapmem::SwapSchedule &schedule,
                   const StimulusData &data, const SimOptions &options,
                   DutResult &out);

    /** By-value convenience wrapper around the pooled overload. */
    DutResult runSingle(const swapmem::SwapSchedule &schedule,
                        const StimulusData &data,
                        const SimOptions &options = {});

    /**
     * Full differential run (both instances). Writes into @p out,
     * reusing its buffers: the hot path for the phase drivers.
     */
    void runDual(const swapmem::SwapSchedule &schedule,
                 const StimulusData &data, const SimOptions &options,
                 DualResult &out);

    /** By-value convenience wrapper around the pooled overload. */
    DualResult runDual(const swapmem::SwapSchedule &schedule,
                       const StimulusData &data,
                       const SimOptions &options);

    /**
     * Reference DiffIFT run by the legacy 4-pass pipeline (value pass
     * then diff pass per instance; sim_passes = 4), whatever
     * options.mode says. Bit-identical to runDual in DiffIFT mode;
     * not used by the fuzzer — it is the oracle the lockstep driver
     * is checked (tests/test_dualsim.cc) and timed
     * (bench/bench_dualsim.cc) against. Never captures a fusion
     * snapshot.
     */
    void runDualFourPass(const swapmem::SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out);

    /**
     * Arm Phase-3 lane fusion for the next runDual: @p sanitized is
     * the sanitized twin of the schedule that runDual will execute
     * (same packet count, kinds, entries and transient protection;
     * only the transient packet's instructions differ). The pointer
     * must stay valid through the matching runFusedPhase3 call.
     * Passing nullptr disarms. Arming is one-shot: each runDual
     * consumes it, and non-DiffIFT runs simply never capture
     * (fusionCaptured() stays false => callers fall back to a
     * standalone sanitized run).
     */
    void
    armFusion(const swapmem::SwapSchedule *sanitized)
    {
        fusion_sanitized_ = sanitized;
        fusion_armed_ = sanitized != nullptr;
        fusion_captured_ = false;
    }

    /** True when the last runDual captured a fusion snapshot. */
    bool fusionCaptured() const { return fusion_captured_; }

    /**
     * Run the Phase-3 sanitized simulation as a fused third lane:
     * restore both lanes from the snapshot captured by the last
     * (armed) lockstep runDual, reload the swap region with the
     * sanitized transient packet, and finish the run. Bit-identical
     * to runDual on the sanitized schedule but costs only the
     * post-transient suffix (sim_passes = 1). Requires
     * fusionCaptured(); consumes the snapshot.
     */
    void runFusedPhase3(const SimOptions &options, DualResult &out);

  private:
    /**
     * Recorded control traces of one instance, one slot per cycle,
     * preallocated from SimOptions::total_cycle_budget and reused
     * across runs (each per-cycle trace keeps its record capacity).
     */
    struct TraceStore
    {
        std::vector<ift::ControlTrace> per_cycle;
        /** Cycles recorded this run (recording is contiguous from 0). */
        uint64_t used = 0;

        void
        prepare(uint64_t budget)
        {
            if (per_cycle.size() < budget)
                per_cycle.resize(budget);
            used = 0;
        }

        /** Recording slot for @p cycle (cleared; marks it used). */
        ift::ControlTrace *
        slot(uint64_t cycle)
        {
            ift::ControlTrace &trace = per_cycle[cycle];
            trace.clear();
            used = cycle + 1;
            return &trace;
        }

        /**
         * Sibling view of @p cycle with the seed harness's
         * grow-by-256 tail hysteresis: cycles < used return the
         * recorded trace; cycles past used but below the next
         * 256-cycle boundary return an *empty* trace (structural
         * divergence => gates open); cycles at or beyond the
         * boundary return nullptr (no trace => gates closed). See
         * kTraceTailQuantum in dualsim.cc for why this asymmetry is
         * load-bearing for bit-identity with the seed.
         */
        const ift::ControlTrace *viewAt(uint64_t cycle) const;
    };

    /** Pooled per-instance simulation resources. */
    struct Lane
    {
        explicit Lane(const uarch::CoreConfig &config) : core(config) {}
        uarch::Core core;
        swapmem::Memory mem;
    };

    /** Per-run driver state of one instance. */
    struct LaneRun
    {
        LaneRun(Lane &lane_in, DutResult &result_in,
                const swapmem::SwapSchedule &schedule)
            : lane(lane_in), result(result_in), runtime(schedule)
        {}
        Lane &lane;
        DutResult &result;
        swapmem::SwapRuntime runtime;
        uint64_t packet_cycles = 0;
        /** Core taint-transition count at lane start (nonzero only
         *  for a fused resume), so finishLane reports the transitions
         *  this run actually simulated. */
        uint64_t taint_transitions_base = 0;
        bool started = false; ///< false: schedule was empty at start
        bool done = false;
    };

    /** Rollback marks for the lockstep checkpoint protocol. */
    struct LaneMarks
    {
        uint64_t cycle = 0;
        uint64_t packet_cycles = 0;
        /** Secret protection at the checkpoint: packet advances flip
         *  it (SwapRuntime::loadCurrent) and the byte-level undo log
         *  does not cover it. */
        swapmem::SecretProt secret_prot = swapmem::SecretProt::Open;
        /** Victim placement / double-fetch swap flags: flipped by
         *  packet advances like secret_prot and likewise outside the
         *  byte-level undo log. */
        bool victim_supervisor = false;
        bool secret_swapped = false;
        bool completed = false;
        bool budget_exceeded = false;
        bool done = false;
        size_t commits = 0;
        size_t squashes = 0;
        size_t rob_io = 0;
        size_t taint_cycles = 0;
        size_t packet_starts = 0;
    };

    /**
     * Snapshot of one lane at a confirmed lockstep point, from which
     * the Phase-3 sanitized run can resume. Pooled: the Core and
     * Memory copies reuse their storage across iterations.
     */
    struct FusedCapture
    {
        explicit FusedCapture(const uarch::CoreConfig &config)
            : core(config)
        {}
        uarch::Core core;
        swapmem::Memory mem;
        DutResult result;
        uint64_t packet_cycles = 0;
        size_t cursor = 0;
        bool runtime_started = false;
        bool started = false;
        bool done = false;
    };

    void startLane(LaneRun &lr, const StimulusData &data,
                   const SimOptions &options, bool flipped_secret);
    void laneTick(LaneRun &lr, const SimOptions &options,
                  ift::IftMode mode, ift::ControlTrace *mine,
                  const ift::ControlTrace *other);
    void finishLane(LaneRun &lr, const SimOptions &options);

    void runOne(const swapmem::SwapSchedule &schedule,
                const StimulusData &data, const SimOptions &options,
                bool flipped_secret, ift::IftMode mode,
                TraceStore *record, const TraceStore *sibling,
                Lane &lane, DutResult &out);

    void runDualLockstep(const swapmem::SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out,
                         bool allow_capture);

    /**
     * The lockstep main loop, solo tails and lane finish, shared by
     * the full run (runDualLockstep) and the fused Phase-3 resume
     * (runFusedPhase3). @p allow_capture enables the fusion snapshot
     * hook at confirmed iteration bottoms.
     */
    void lockstepLoop(LaneRun &l0, LaneRun &l1,
                      const SimOptions &options, bool allow_capture);

    void captureLane(FusedCapture &cap, const LaneRun &lr);
    void restoreLane(const FusedCapture &cap, LaneRun &lr,
                     const SimOptions &options, size_t transient_index);

    void buildMemory(swapmem::Memory &mem, const StimulusData &data,
                     bool flipped_secret) const;

    uarch::CoreConfig cfg_;
    Lane lane0_;
    Lane lane1_;
    /** Checkpoint target for the lockstep redo protocol (pooled so
     *  the per-checkpoint copy reuses vector storage). */
    uarch::Core ckpt_core_;
    /** Discarded value-pass results of the legacy 4-pass path. */
    DutResult scratch_result_;
    TraceStore store_a_;
    TraceStore store_b_;
    /** Phase-3 fusion snapshots (lane 0 / lane 1). */
    FusedCapture fused0_;
    FusedCapture fused1_;
    /** Sanitized schedule the armed capture will resume onto. */
    const swapmem::SwapSchedule *fusion_sanitized_ = nullptr;
    bool fusion_armed_ = false;
    bool fusion_captured_ = false;
};

} // namespace dejavuzz::harness

#endif // DEJAVUZZ_HARNESS_DUALSIM_HH
