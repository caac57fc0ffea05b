/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrates: the
 * functional emulator, the instruction executor, the undo log, the
 * branch predictor stack, the JRS confidence estimator, the cache
 * hierarchy, the compiler pipeline, and the end-to-end timing core.
 */

#include <benchmark/benchmark.h>

#include "arch/emulator.hh"
#include "arch/executor.hh"
#include "common/rng.hh"
#include "compiler/builder.hh"
#include "compiler/driver.hh"
#include "isa/assembler.hh"
#include "uarch/bpred.hh"
#include "uarch/cache.hh"
#include "uarch/confidence.hh"
#include "uarch/core.hh"
#include "workloads/workload.hh"

namespace {

using namespace wisc;

Program
loopProgram(int trips)
{
    return assemble("li r4, 0\nli r5, 1\nloop:\nadd r4, r4, r5\n"
                    "addi r5, r5, 1\ncmpi.le p1, p0, r5, " +
                    std::to_string(trips) + "\nbr p1, loop\nhalt\n");
}

void
BM_EmulatorLoop(benchmark::State &state)
{
    Program p = loopProgram(10000);
    Emulator emu;
    for (auto _ : state) {
        EmuResult r = emu.run(p);
        wisc_assert(r.halted, "benchmark loop did not halt — the "
                              "measured steps are the cap, not the run");
        benchmark::DoNotOptimize(r.resultReg);
    }
    state.SetItemsProcessed(state.iterations() * 40002);
}
BENCHMARK(BM_EmulatorLoop);

void
BM_ExecutorAluInst(benchmark::State &state)
{
    ArchState s;
    Instruction add;
    add.op = Opcode::Add;
    add.rd = 5;
    add.rs1 = 6;
    add.rs2 = 7;
    for (auto _ : state) {
        StepResult r = executeInst(add, 0, 10, s, nullptr);
        benchmark::DoNotOptimize(r.nextIndex);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorAluInst);

void
BM_UndoLogRoundTrip(benchmark::State &state)
{
    ArchState s;
    UndoLog log;
    for (auto _ : state) {
        auto m = log.mark();
        for (int i = 0; i < 16; ++i) {
            log.recordReg(5, s.readReg(5));
            s.writeReg(5, i);
        }
        log.rollbackTo(m, s);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_UndoLogRoundTrip);

void
BM_HybridPredictor(benchmark::State &state)
{
    SimParams params;
    HybridPredictor bp(params);
    Rng rng(7);
    std::uint32_t pc = 100;
    for (auto _ : state) {
        BpredCheckpoint ckpt;
        bool pred = bp.predict(pc, ckpt);
        bool actual = rng.chance(0.7);
        bp.updateSpeculative(pc, pred);
        bp.train(pc, actual, ckpt);
        pc = 100 + static_cast<std::uint32_t>(rng.below(64));
        benchmark::DoNotOptimize(pred);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridPredictor);

void
BM_JrsConfidence(benchmark::State &state)
{
    SimParams params;
    StatSet stats;
    JrsConfidenceEstimator conf(params, stats);
    Rng rng(9);
    for (auto _ : state) {
        std::uint32_t pc = 100 + static_cast<std::uint32_t>(rng.below(32));
        std::uint64_t hist = rng.below(256);
        bool high = conf.estimate(pc, hist);
        conf.update(pc, hist, rng.chance(0.9));
        benchmark::DoNotOptimize(high);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JrsConfidence);

void
BM_CacheHierarchy(benchmark::State &state)
{
    SimParams params;
    StatSet stats;
    MemorySystem mem(params, stats);
    Rng rng(11);
    Cycle now = 0;
    for (auto _ : state) {
        unsigned lat = mem.loadAccess(rng.below(1 << 22), now);
        now += 1;
        benchmark::DoNotOptimize(lat);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchy);

void
BM_CompileAllVariants(benchmark::State &state)
{
    for (auto _ : state) {
        CompiledWorkload w = compileWorkload("gzip");
        benchmark::DoNotOptimize(w.variants.size());
    }
}
BENCHMARK(BM_CompileAllVariants);

void
BM_TimingCoreThroughput(benchmark::State &state)
{
    Program p = loopProgram(5000);
    SimParams params;
    for (auto _ : state) {
        StatSet stats;
        SimResult r = simulate(p, params, stats);
        benchmark::DoNotOptimize(r.cycles);
    }
    // Simulated µops per wall-clock second: the simulator's throughput.
    state.SetItemsProcessed(state.iterations() * 20002);
}
BENCHMARK(BM_TimingCoreThroughput);

} // namespace

BENCHMARK_MAIN();
