/**
 * @file
 * Differential-harness throughput: lockstep co-simulation vs the
 * legacy 4-pass diffIFT pipeline, on the multi-packet PoC suite.
 *
 * The lockstep strategy must beat the 4-pass baseline (CI gate); the
 * repo targets >=1.6x on the plain Phase-3-style configuration
 * (sinks only). The TaintLog variants measure the Phase-2
 * configuration where per-cycle taint sampling adds a fixed cost to
 * both strategies.
 */

#include <benchmark/benchmark.h>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "uarch/config.hh"
#include "util/logging.hh"

using namespace dejavuzz;

namespace {

harness::SimOptions
diffOptions(bool taint_log)
{
    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.sinks = true;
    options.taint_log = taint_log;
    return options;
}

void
runDiffIft(benchmark::State &state, bool lockstep, bool taint_log)
{
    auto cfg = uarch::smallBoomConfig();
    harness::DualSim sim(cfg);
    auto options = diffOptions(taint_log);
    auto suite = bench::pocSuite();
    harness::DualResult result;
    uint64_t cycles = 0;
    for (auto _ : state) {
        for (const auto &poc : suite) {
            if (lockstep)
                sim.runDual(poc.schedule, poc.data, options, result);
            else
                sim.runDualFourPass(poc.schedule, poc.data, options,
                                    result);
            cycles += result.dut0.cycles + result.dut1.cycles;
            benchmark::DoNotOptimize(result.dut0.state_hash);
        }
    }
    state.counters["dut_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_DiffIFTLockstep(benchmark::State &state)
{
    runDiffIft(state, /*lockstep=*/true, /*taint_log=*/false);
}
BENCHMARK(BM_DiffIFTLockstep)->Unit(benchmark::kMillisecond);

void
BM_DiffIFTFourPass(benchmark::State &state)
{
    runDiffIft(state, /*lockstep=*/false, /*taint_log=*/false);
}
BENCHMARK(BM_DiffIFTFourPass)->Unit(benchmark::kMillisecond);

void
BM_DiffIFTLockstepTaintLog(benchmark::State &state)
{
    runDiffIft(state, /*lockstep=*/true, /*taint_log=*/true);
}
BENCHMARK(BM_DiffIFTLockstepTaintLog)->Unit(benchmark::kMillisecond);

void
BM_DiffIFTFourPassTaintLog(benchmark::State &state)
{
    runDiffIft(state, /*lockstep=*/false, /*taint_log=*/true);
}
BENCHMARK(BM_DiffIFTFourPassTaintLog)->Unit(benchmark::kMillisecond);

} // namespace

// Hand-rolled BENCHMARK_MAIN(): quiet the inform() digest before the
// runner does anything (--benchmark_list_tests must print only the
// benchmark names).
int
main(int argc, char **argv)
{
    dejavuzz::setQuiet(true);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
