/**
 * @file
 * Differential-harness equivalence and pooling tests.
 *
 * The lockstep co-simulation strategy (DualSim::runDual) must produce
 * bit-identical DutResults to the legacy 4-pass value/diff reference
 * (DualSim::runDualFourPass) — same sinks, taint logs, trace logs,
 * timing/state hashes — on the PoC suite, real triggered windows and
 * every checkpoint cadence. The fused
 * Phase-3 lane (resume from the Phase-2 transient-boundary snapshot)
 * must be bit-identical to a standalone sanitized run. And because
 * DualSim pools its cores/memories/result buffers, a reused instance
 * must be bit-identical to a freshly constructed one.
 */

#include <gtest/gtest.h>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "uarch/config.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using core::Phase1;
using core::Seed;
using core::StimGen;
using core::TestCase;
using core::TriggerKind;
using harness::DualResult;
using harness::DualSim;
using harness::DutResult;
using harness::SimOptions;
using harness::StimulusData;

void
expectDutEqual(const DutResult &a, const DutResult &b,
               const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timing_hash, b.timing_hash);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.packet_start, b.packet_start);

    EXPECT_EQ(a.contention.fetch_refill_wait,
              b.contention.fetch_refill_wait);
    EXPECT_EQ(a.contention.load_wb_conflict,
              b.contention.load_wb_conflict);
    EXPECT_EQ(a.contention.fdiv_busy_wait, b.contention.fdiv_busy_wait);
    EXPECT_EQ(a.contention.div_busy_wait, b.contention.div_busy_wait);
    EXPECT_EQ(a.contention.mem_port_wait, b.contention.mem_port_wait);

    // Trace log.
    EXPECT_EQ(a.trace.cycles, b.trace.cycles);
    ASSERT_EQ(a.trace.commits.size(), b.trace.commits.size());
    for (size_t i = 0; i < a.trace.commits.size(); ++i) {
        EXPECT_EQ(a.trace.commits[i].cycle, b.trace.commits[i].cycle);
        EXPECT_EQ(a.trace.commits[i].pc, b.trace.commits[i].pc);
        EXPECT_EQ(a.trace.commits[i].op, b.trace.commits[i].op);
    }
    ASSERT_EQ(a.trace.squashes.size(), b.trace.squashes.size());
    for (size_t i = 0; i < a.trace.squashes.size(); ++i) {
        const auto &sa = a.trace.squashes[i];
        const auto &sb = b.trace.squashes[i];
        EXPECT_EQ(sa.cycle, sb.cycle);
        EXPECT_EQ(sa.open_cycle, sb.open_cycle);
        EXPECT_EQ(sa.cause, sb.cause);
        EXPECT_EQ(sa.exc, sb.exc);
        EXPECT_EQ(sa.pc, sb.pc);
        EXPECT_EQ(sa.spec_pc, sb.spec_pc);
        EXPECT_EQ(sa.flushed, sb.flushed);
        EXPECT_EQ(sa.transient_executed, sb.transient_executed);
    }
    ASSERT_EQ(a.trace.rob_io.size(), b.trace.rob_io.size());
    for (size_t i = 0; i < a.trace.rob_io.size(); ++i) {
        EXPECT_EQ(a.trace.rob_io[i].cycle, b.trace.rob_io[i].cycle);
        EXPECT_EQ(a.trace.rob_io[i].enqueued,
                  b.trace.rob_io[i].enqueued);
        EXPECT_EQ(a.trace.rob_io[i].committed,
                  b.trace.rob_io[i].committed);
    }

    // Taint log — the bit-exact diffIFT shadow state per cycle.
    ASSERT_EQ(a.taint_log.cycles.size(), b.taint_log.cycles.size());
    for (size_t i = 0; i < a.taint_log.cycles.size(); ++i) {
        const auto &ca = a.taint_log.cycles[i];
        const auto &cb = b.taint_log.cycles[i];
        EXPECT_EQ(ca.cycle, cb.cycle);
        ASSERT_EQ(ca.count, cb.count) << "taint-log cycle " << ca.cycle;
        EXPECT_EQ(ca.taintedRegs(), cb.taintedRegs());
        EXPECT_EQ(ca.taintSum(), cb.taintSum());
        const auto *sa = a.taint_log.samplesBegin(ca);
        const auto *sb = b.taint_log.samplesBegin(cb);
        for (uint32_t m = 0; m < ca.count; ++m) {
            EXPECT_EQ(sa[m].module_id, sb[m].module_id);
            EXPECT_EQ(sa[m].tainted_regs, sb[m].tainted_regs)
                << "cycle " << ca.cycle << " module "
                << sa[m].module_id;
            EXPECT_EQ(sa[m].taint_bits, sb[m].taint_bits)
                << "cycle " << ca.cycle << " module "
                << sa[m].module_id;
        }
    }

    // Sink snapshots.
    ASSERT_EQ(a.sinks.size(), b.sinks.size());
    for (size_t i = 0; i < a.sinks.size(); ++i) {
        EXPECT_EQ(a.sinks[i].id, b.sinks[i].id);
        EXPECT_EQ(a.sinks[i].annotated, b.sinks[i].annotated);
        EXPECT_EQ(a.sinks[i].taint, b.sinks[i].taint)
            << "sink " << a.sinks[i].label();
        EXPECT_EQ(a.sinks[i].live, b.sinks[i].live)
            << "sink " << a.sinks[i].label();
    }
}

void
expectDualEqual(const DualResult &a, const DualResult &b)
{
    expectDutEqual(a.dut0, b.dut0, "dut0");
    expectDutEqual(a.dut1, b.dut1, "dut1");
}

SimOptions
fullOptions(ift::IftMode mode)
{
    SimOptions options;
    options.mode = mode;
    options.taint_log = true;
    options.sinks = true;
    return options;
}

/** The 4-pass reference run, by value. */
DualResult
fourPass(DualSim &sim, const swapmem::SwapSchedule &schedule,
         const StimulusData &data)
{
    DualResult out;
    sim.runDualFourPass(schedule, data,
                        fullOptions(ift::IftMode::DiffIFT), out);
    return out;
}

/** Generate Phase-1-triggered, window-completed test cases. */
std::vector<TestCase>
triggeredCases(const uarch::CoreConfig &cfg, unsigned want)
{
    DualSim sim(cfg);
    StimGen gen(cfg);
    Phase1 phase1(sim, SimOptions{});
    Rng rng(0xd0a1);
    std::vector<TestCase> cases;
    for (unsigned i = 0; i < 64 && cases.size() < want; ++i) {
        Seed seed = gen.newSeed(rng, i);
        TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        gen.completeWindow(tc);
        cases.push_back(std::move(tc));
    }
    return cases;
}

TEST(DualSimEquivalence, LockstepMatchesFourPassOnPocSuite)
{
    auto cfg = uarch::smallBoomConfig();
    DualSim lockstep_sim(cfg);
    DualSim fourpass_sim(cfg);
    for (const auto &poc : bench::pocSuite()) {
        SCOPED_TRACE(poc.name);
        auto a = lockstep_sim.runDual(
            poc.schedule, poc.data,
            fullOptions(ift::IftMode::DiffIFT));
        auto b = fourPass(fourpass_sim, poc.schedule, poc.data);
        EXPECT_EQ(a.sim_passes, 2u);
        EXPECT_EQ(b.sim_passes, 4u);
        expectDualEqual(a, b);
    }
}

TEST(DualSimEquivalence, LockstepMatchesFourPassOnTriggeredWindows)
{
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        auto cases = triggeredCases(cfg, 6);
        ASSERT_FALSE(cases.empty());
        DualSim lockstep_sim(cfg);
        DualSim fourpass_sim(cfg);
        for (size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(i);
            auto a = lockstep_sim.runDual(
                cases[i].schedule, cases[i].data,
                fullOptions(ift::IftMode::DiffIFT));
            auto b = fourPass(fourpass_sim, cases[i].schedule,
                              cases[i].data);
            expectDualEqual(a, b);
        }
    }
}

TEST(DualSimEquivalence, CheckpointIntervalSweepIsBitIdentical)
{
    // The checkpoint cadence is a pure time/space trade-off; any
    // interval must replay/redo to the same bits. The whole-run
    // interval is the regression guard for rollback state the undo
    // log does not cover (e.g. the secret protection a packet
    // advance flips before a divergence forces a replay across it).
    auto cfg = uarch::smallBoomConfig();
    DualSim fourpass_sim(cfg);
    for (const auto &poc : bench::pocSuite()) {
        SCOPED_TRACE(poc.name);
        auto baseline =
            fourPass(fourpass_sim, poc.schedule, poc.data);
        for (uint64_t interval : {uint64_t{1}, uint64_t{7},
                                  uint64_t{1000000}}) {
            SCOPED_TRACE(interval);
            DualSim lockstep_sim(cfg);
            auto options = fullOptions(ift::IftMode::DiffIFT);
            options.lockstep_checkpoint_interval = interval;
            auto a = lockstep_sim.runDual(poc.schedule, poc.data,
                                          options);
            expectDualEqual(a, baseline);
        }
    }
}

TEST(DualSimEquivalence, FusedPhase3MatchesStandaloneSanitizedRun)
{
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        StimGen gen(cfg);
        auto cases = triggeredCases(cfg, 6);
        ASSERT_FALSE(cases.empty());
        DualSim fused_sim(cfg);
        DualSim standalone_sim(cfg);
        size_t checked = 0;
        for (size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(i);
            const TestCase &tc = cases[i];
            if (!tc.has_window_payload)
                continue;
            ++checked;
            swapmem::SwapSchedule sanitized =
                gen.sanitizedSchedule(tc);
            // Phase 3 runs without taint logging; the true variant
            // exercises the generic prefix-log retention path.
            for (bool taint_log : {false, true}) {
                SCOPED_TRACE(taint_log);
                fused_sim.armFusion(&sanitized);
                DualResult phase2;
                fused_sim.runDual(
                    tc.schedule, tc.data,
                    fullOptions(ift::IftMode::DiffIFT), phase2);
                ASSERT_TRUE(fused_sim.fusionCaptured());

                SimOptions p3;
                p3.mode = ift::IftMode::DiffIFT;
                p3.sinks = true;
                p3.taint_log = taint_log;
                DualResult fused;
                fused_sim.runFusedPhase3(p3, fused);
                EXPECT_EQ(fused.sim_passes, 1u);
                EXPECT_FALSE(fused_sim.fusionCaptured());

                DualResult standalone;
                standalone_sim.runDual(sanitized, tc.data, p3,
                                       standalone);
                expectDualEqual(fused, standalone);
            }
        }
        EXPECT_GT(checked, 0u);
    }
}

TEST(DualSimEquivalence, FusionOnOffIsIdentityThroughPhase3)
{
    // End-to-end through the phase drivers: the fused third lane and
    // the standalone sanitized run must reach the same Phase-3
    // verdicts, with the fused path spending one simulation pass
    // where the standalone path spends two.
    auto cfg = uarch::smallBoomConfig();
    StimGen gen(cfg);
    auto cases = triggeredCases(cfg, 4);
    ASSERT_FALSE(cases.empty());

    DualSim fused_sim(cfg);
    DualSim plain_sim(cfg);
    ift::TaintCoverage cov_fused;
    auto ids_fused = uarch::Core::registerModules(cov_fused, cfg);
    ift::TaintCoverage cov_plain;
    auto ids_plain = uarch::Core::registerModules(cov_plain, cfg);
    SimOptions base;
    base.mode = ift::IftMode::DiffIFT;
    core::Phase2 phase2_fused(fused_sim, base, cov_fused, ids_fused,
                              &gen);
    core::Phase3 phase3_fused(fused_sim, base, gen);
    core::Phase2 phase2_plain(plain_sim, base, cov_plain, ids_plain);
    core::Phase3 phase3_plain(plain_sim, base, gen);

    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(i);
        const core::Phase2Result &ra = phase2_fused.run(cases[i]);
        core::Phase3Result va = phase3_fused.run(cases[i], ra);
        const core::Phase2Result &rb = phase2_plain.run(cases[i]);
        core::Phase3Result vb = phase3_plain.run(cases[i], rb);

        EXPECT_EQ(ra.window_ok, rb.window_ok);
        EXPECT_EQ(ra.taint_propagated, rb.taint_propagated);
        expectDualEqual(ra.dual, rb.dual);

        EXPECT_EQ(va.leak, vb.leak);
        EXPECT_EQ(va.encoded_sinks, vb.encoded_sinks);
        EXPECT_EQ(va.live_encoded_sinks, vb.live_encoded_sinks);
        ASSERT_EQ(va.report.has_value(), vb.report.has_value());
        if (va.report.has_value()) {
            EXPECT_EQ(va.report->channel, vb.report->channel);
            EXPECT_EQ(va.report->components, vb.report->components);
        }
        if (vb.simulations == 2) {
            // The sanitized analysis actually ran: fusion must have
            // collapsed it to a single pass.
            EXPECT_EQ(va.simulations, 1u);
        } else {
            EXPECT_EQ(va.simulations, vb.simulations);
        }
    }
}

TEST(DualSimReuse, PooledRunsMatchFreshInstance)
{
    auto cfg = uarch::smallBoomConfig();
    auto cases = triggeredCases(cfg, 3);
    ASSERT_GE(cases.size(), 2u);
    auto options = fullOptions(ift::IftMode::DiffIFT);

    // Dirty the pooled instance with every other case first, then run
    // the probe case; a fresh instance runs only the probe. Reset
    // must erase all cross-run state.
    for (const auto &probe : cases) {
        DualSim pooled(cfg);
        for (const auto &other : cases)
            (void)pooled.runDual(other.schedule, other.data, options);
        auto reused =
            pooled.runDual(probe.schedule, probe.data, options);
        DualSim fresh(cfg);
        auto baseline =
            fresh.runDual(probe.schedule, probe.data, options);
        expectDualEqual(reused, baseline);
    }
}

TEST(DualSimReuse, PooledRunSingleMatchesFresh)
{
    auto cfg = uarch::xiangshanMinimalConfig();
    auto poc = bench::spectreV4();
    auto other = bench::spectreV1();
    SimOptions options;

    DualSim pooled(cfg);
    (void)pooled.runSingle(other.schedule, other.data, options);
    (void)pooled.runDual(other.schedule, other.data,
                         fullOptions(ift::IftMode::DiffIFT));
    auto reused = pooled.runSingle(poc.schedule, poc.data, options);

    DualSim fresh(cfg);
    auto baseline = fresh.runSingle(poc.schedule, poc.data, options);
    expectDutEqual(reused, baseline, "runSingle");
}

TEST(DualSimReuse, OutParamBuffersAreReusedAcrossRuns)
{
    auto cfg = uarch::smallBoomConfig();
    auto poc = bench::spectreV1();
    auto options = fullOptions(ift::IftMode::DiffIFT);

    DualSim sim(cfg);
    DualResult pooled_result;
    sim.runDual(poc.schedule, poc.data, options, pooled_result);
    // Second fill into the same buffers must yield the same content.
    DualResult second;
    sim.runDual(poc.schedule, poc.data, options, second);
    sim.runDual(poc.schedule, poc.data, options, pooled_result);
    expectDualEqual(pooled_result, second);
}

TEST(DualSimReuse, ShorterRunAfterLongerRunSeesNoStaleTraces)
{
    // The trace stores are sized once and reused; a short schedule
    // after a long one must not observe the long run's recordings.
    auto cfg = uarch::smallBoomConfig();
    auto long_poc = bench::spectreV2();
    auto short_poc = bench::spectreV1();
    auto options = fullOptions(ift::IftMode::DiffIFT);

    DualSim pooled(cfg);
    (void)pooled.runDual(long_poc.schedule, long_poc.data, options);
    auto reused =
        pooled.runDual(short_poc.schedule, short_poc.data, options);
    DualSim fresh(cfg);
    auto baseline =
        fresh.runDual(short_poc.schedule, short_poc.data, options);
    expectDualEqual(reused, baseline);
}

} // namespace
} // namespace dejavuzz
