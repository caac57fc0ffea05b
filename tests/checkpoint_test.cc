/**
 * @file
 * Checkpoint and split-run regression tests for sampled simulation
 * (`ctest -L sampling`, alongside the bench-side smoke entry):
 *
 *  - split-advance invariance: interrupting a detailed run with extra
 *    advance() legs must leave the final SimResult and every counter
 *    bit-identical to the uninterrupted run, property-tested across
 *    the differential fuzzer's SimParams matrix (TAGE, bimodal,
 *    attribution, poll scheduler, ...) on generated programs;
 *  - fast-forward checkpoint injection: a Core restored from a
 *    FastForward checkpoint must finish the program with the exact
 *    architectural result, and the qp-true retire counts of the two
 *    legs must sum to the functional total — the coordinate identity
 *    the sampled estimator extrapolates in;
 *  - fast-forward warming under FetchGate: with no wrong path, a
 *    drained detailed core and a fast-forward to the same boundary
 *    hold the same confidence-estimator state;
 *  - restore then checkpoint: the one warm-state walk gives back the
 *    same bytes across the fuzzer's machine matrix, a merge-point
 *    machine with attribution, and a fast-forward with attribution;
 *  - restore guards: a checkpoint must not restore into a core with a
 *    different machine configuration or program image;
 *  - sampled-run sanity: a prefix covering the whole program degrades
 *    to exact full detail; a genuinely sampled run keeps architectural
 *    results exact and the CPI estimate in a sane band.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "arch/state.hh"
#include "arch/state_diff.hh"
#include "common/bytes.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/generator.hh"
#include "harness/runner.hh"
#include "isa/program.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/fastfwd.hh"
#include "workloads/workload.hh"

namespace wisc {
namespace {

void
expectSimResultsEqual(const SimResult &a, const SimResult &b,
                      const std::string &what)
{
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.retiredUops, b.retiredUops) << what;
    EXPECT_EQ(a.resultReg, b.resultReg) << what;
    EXPECT_EQ(a.memFingerprint, b.memFingerprint) << what;
}

// ------------------------------------------------------- split advance

TEST(SplitRun, AdvanceLegsAreBitIdenticalAcrossParamsMatrix)
{
    // The sampled runner drives every window as advance(warmup,
    // no-drain) + advance(measure, no-drain); this property says the
    // legging itself can never perturb the machine. Checked across
    // the fuzzer's machine matrix so the predictor zoo (TAGE,
    // bimodal), the poll scheduler, and attribution all get the same
    // guarantee.
    const std::vector<ParamsPoint> matrix = defaultParamsMatrix(true);
    for (std::uint64_t seed : {3ull, 17ull}) {
        Program prog = generateProgram(seed).lower();
        for (const ParamsPoint &pt : matrix) {
            StatSet sa;
            SimResult ra = simulate(prog, pt.params, sa);
            ASSERT_TRUE(ra.halted) << pt.label << " seed " << seed;

            StatSet sb;
            Core cb(pt.params, sb, prog);
            cb.advance(ra.retiredUops / 3, /*drain=*/false);
            cb.advance(2 * ra.retiredUops / 3, /*drain=*/false);
            cb.advance(UINT64_MAX);
            SimResult rb = cb.finishRun();

            const std::string what =
                pt.label + " seed " + std::to_string(seed);
            expectSimResultsEqual(ra, rb, what);
            EXPECT_EQ(sa.record().stats, sb.record().stats) << what;
        }
    }
}

TEST(SplitRun, CoreCheckpointRoundTripIsBitIdentical)
{
    // Save warm state at a drained boundary, restore into a *fresh*
    // core with a fresh StatSet, continue to completion: the combined
    // statistics must be bit-identical to a run that drained at the
    // same point and continued in place. Property-tested across the
    // fuzzer's machine matrix so TAGE, bimodal, attribution, and the
    // poll scheduler all round-trip.
    // Seeds chosen for the longest generated runs (~1.3–1.7k µops) so
    // a drained boundary at a third of the run lands strictly before
    // the halt even with a 512-entry ROB's worth of in-flight work.
    const std::vector<ParamsPoint> matrix = defaultParamsMatrix(true);
    for (std::uint64_t seed : {168ull, 187ull}) {
        Program prog = generateProgram(seed).lower();
        for (const ParamsPoint &pt : matrix) {
            // Pre-pass: measure the run length under these params (the
            // wish decisions, and hence the retire count, depend on the
            // front end) so the boundary is placed mid-run.
            std::uint64_t total;
            {
                StatSet s0;
                SimResult r0 = simulate(prog, pt.params, s0);
                ASSERT_TRUE(r0.halted) << pt.label << " seed " << seed;
                total = r0.retiredUops;
            }
            const std::uint64_t boundary = total / 3;

            // Reference: drain at the boundary, keep going in place.
            StatSet sa;
            Core ca(pt.params, sa, prog);
            ca.advance(boundary, /*drain=*/true);
            ASSERT_FALSE(ca.halted()) << pt.label << " seed " << seed;
            SimResult ra = ca.run();
            ASSERT_TRUE(ra.halted) << pt.label << " seed " << seed;

            // Round trip: same drain, checkpoint, restore elsewhere.
            StatSet sb1;
            Core cb1(pt.params, sb1, prog);
            cb1.advance(boundary, /*drain=*/true);
            CoreCheckpoint ckpt;
            cb1.checkpoint(ckpt);
            cb1.finishRun();

            StatSet sb2;
            Core cb2(pt.params, sb2, prog, ckpt);
            SimResult rb = cb2.run();

            const std::string what =
                pt.label + " seed " + std::to_string(seed);
            expectSimResultsEqual(ra, rb, what);

            // Counters are leg-local deltas and additive across the
            // boundary: the restored core loads no data and warms no
            // text image, so leg 1 plus leg 2 must reproduce the
            // uninterrupted totals exactly.
            std::map<std::string, std::uint64_t> sum = sb1.record().stats;
            for (const auto &kv : sb2.record().stats)
                sum[kv.first] += kv.second;
            EXPECT_EQ(sum, sa.record().stats) << what;
        }
    }
}

// ------------------------------------------------- checkpoint injection

TEST(Checkpoint, FastForwardInjectionKeepsArchitecturalResultsExact)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    Emulator ref;
    EmuResult er = ref.run(prog);
    ASSERT_TRUE(er.halted);

    SimParams sp;
    sp.checkFinalState = false;

    FastForward ff(prog, sp);
    ff.advanceTo(er.dynInsts / 2);
    ASSERT_FALSE(ff.halted());

    CoreCheckpoint ckpt;
    ff.checkpoint(ckpt);

    StatSet ws;
    Core core(sp, ws, prog, ckpt);
    const std::uint64_t restored = core.retired();
    EXPECT_EQ(restored, ff.uops());
    SimResult r = core.run();

    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, er.resultReg);
    EXPECT_EQ(r.memFingerprint, er.memFingerprint);

    // The qp-true coordinate identity: functional-prefix qp-true plus
    // the detailed continuation's qp-true retires equals the whole
    // functional qp-true length, even though the raw retire count
    // diverges (the core pads with nullified µops when it predicates).
    const std::uint64_t prefixQt = ff.uops() - ff.predFalse();
    const std::uint64_t contQt = (r.retiredUops - restored) -
                                 ws.get("core.retired_pred_false");
    EXPECT_EQ(prefixQt + contQt, er.dynInsts - er.predFalse);
}

/** The confidence-estimator section of a checkpoint's byte stream,
 *  located by restoring the sections before it in checkpoint order. */
std::string
confSection(const CoreCheckpoint &ckpt, const SimParams &p)
{
    StatSet s;
    StateIO io(ckpt.bytes);
    ArchState state;
    state.io(io);
    MemorySystem mem(p, s);
    mem.io(io);
    std::unique_ptr<IBranchPredictor> bpred = makeBranchPredictor(p, s);
    bpred->io(io);
    const std::size_t begin = io.pos();
    makeConfidenceEstimator(p, s, *bpred)->io(io);
    EXPECT_TRUE(io.ok());
    return ckpt.bytes.substr(begin, io.pos() - begin);
}

TEST(Checkpoint, FetchGateFastForwardTrainsTheEstimatorLikeTheCore)
{
    // Under FetchGate the core trains its confidence estimator on every
    // retired normal branch, not only on wish branches. With a perfect
    // direction predictor there is no wrong path and no predication, so
    // a detailed core drained at a boundary and a fast-forward to the
    // same boundary must hold the same estimator state. The up/down
    // estimator serializes a plain counter array (no padding bytes),
    // so its section compares byte for byte; every update is "correct"
    // and saturating, so retire timing cannot reorder it.
    CompiledWorkload w = compileWorkload("gzip");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    SimParams sp;
    sp.checkFinalState = false;
    sp.oracle.perfectCBP = true;
    sp.dynPred = DynPredMode::FetchGate;
    sp.confKind = ConfKind::UpDown;

    Emulator ref;
    EmuResult er = ref.run(prog);
    ASSERT_TRUE(er.halted);

    StatSet cs;
    Core core(sp, cs, prog);
    core.advance(er.dynInsts / 2, /*drain=*/true);
    ASSERT_FALSE(core.halted());
    CoreCheckpoint detailed;
    core.checkpoint(detailed);

    FastForward ff(prog, sp);
    ff.advanceTo(core.retired());
    CoreCheckpoint warmed;
    ff.checkpoint(warmed);

    ASSERT_EQ(ff.uops(), core.retired());
    ASSERT_FALSE(firstStateDiff(ff.archState(), core.archState()));
    const std::string want = confSection(detailed, sp);
    const std::string got = confSection(warmed, sp);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want)
        << "fast-forward and detailed estimator state differ";
}

TEST(Checkpoint, RestoreThenCheckpointIsByteIdentical)
{
    // Core::ioWarmState is one walk for both directions, so restoring a
    // checkpoint into a fresh core and checkpointing again must give the
    // same bytes. A walk that read a field into a temporary instead of
    // the structure would leave the fresh core's reset value behind.
    CompiledWorkload w = compileWorkload("gzip");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    const auto expectRoundTrip = [&](const std::string &label,
                                     const SimParams &p,
                                     const CoreCheckpoint &first) {
        StatSet s2;
        Core c2(p, s2, prog, first);
        CoreCheckpoint second;
        c2.checkpoint(second);
        EXPECT_EQ(second.bytes.size(), first.bytes.size()) << label;
        EXPECT_TRUE(second.bytes == first.bytes) << label;
    };

    std::vector<ParamsPoint> machines = defaultParamsMatrix(true);
    SimParams mp;
    mp.checkFinalState = false;
    mp.dynPred = DynPredMode::MergePoint;
    mp.collectAttribution = true;
    machines.push_back({"merge-point+attribution", mp});

    for (const ParamsPoint &pt : machines) {
        StatSet s1;
        Core c1(pt.params, s1, prog);
        c1.advance(20'000, /*drain=*/true);
        ASSERT_FALSE(c1.halted()) << pt.label;
        CoreCheckpoint first;
        c1.checkpoint(first);
        expectRoundTrip(pt.label, pt.params, first);
    }

    // A fast-forward on a machine that attaches the attribution engine
    // checkpoints the engine's initial flush shadow, which a restored
    // core with the same params reads back.
    SimParams ap;
    ap.checkFinalState = false;
    ap.collectAttribution = true;
    FastForward ff(prog, ap);
    ff.advanceTo(20'000);
    ASSERT_FALSE(ff.halted());
    CoreCheckpoint warmed;
    ff.checkpoint(warmed);
    expectRoundTrip("fast-forward+attribution", ap, warmed);
}

TEST(Checkpoint, RestoreGuardsRejectMismatchedMachineAndProgram)
{
    CompiledWorkload w = compileWorkload("mcf");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);
    Program other =
        programFor(w, BinaryVariant::Normal, InputSet::A);

    SimParams sp;
    sp.checkFinalState = false;
    FastForward ff(prog, sp);
    ff.advanceTo(10'000);

    CoreCheckpoint ckpt;
    ff.checkpoint(ckpt);

    // The guards are simulator invariants (wisc_assert → abort), so
    // they are checked as death tests.
    SimParams wrong = sp;
    wrong.robSize = 64;
    EXPECT_DEATH(
        {
            StatSet s1;
            Core c1(wrong, s1, prog, ckpt);
        },
        "different machine configuration");
    EXPECT_DEATH(
        {
            StatSet s2;
            Core c2(sp, s2, other, ckpt);
        },
        "different program");
}

// ------------------------------------------------------- sampled sanity

TEST(SampledRun, PrefixCoveringWholeProgramIsExact)
{
    // With a detailed prefix longer than the program, stratum B is
    // empty and the "estimate" must equal a full detailed run to the
    // cycle.
    CompiledWorkload w = compileWorkload("mcf");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    SimParams fp;
    fp.checkFinalState = false;
    RunOutcome full = captureRun(prog, fp);
    ASSERT_TRUE(full.result.halted);

    SimParams sp = fp;
    sp.sampling.enabled = true;
    sp.sampling.prefixUops = 4 * full.result.retiredUops;
    RunOutcome samp = captureRun(prog, sp);

    EXPECT_EQ(samp.result.cycles, full.result.cycles);
    EXPECT_EQ(samp.result.retiredUops, full.result.retiredUops);
    EXPECT_EQ(samp.result.resultReg, full.result.resultReg);
    EXPECT_EQ(samp.result.memFingerprint, full.result.memFingerprint);
    EXPECT_EQ(samp.require("sampling.windows"), 0u);
    EXPECT_EQ(samp.require("core.cycles"), full.require("core.cycles"));
}

TEST(SampledRun, PeriodicWindowsKeepExactResultsAndSaneEstimate)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    SimParams fp;
    fp.checkFinalState = false;
    RunOutcome full = captureRun(prog, fp);
    ASSERT_TRUE(full.result.halted);
    const std::uint64_t ujt =
        full.result.retiredUops - full.require("core.retired_pred_false");

    SimParams sp = fp;
    sp.sampling.enabled = true;
    sp.sampling.warmupUops = 2 * fp.robSize;
    sp.sampling.measureUops = 4 * fp.robSize;
    sp.sampling.periodUops = std::max<std::uint64_t>(
        ujt / 8, sp.sampling.warmupUops + sp.sampling.measureUops);
    RunOutcome samp = captureRun(prog, sp);

    // Architectural results are exact, never estimated.
    EXPECT_EQ(samp.require("sampling.qp_true_uops"), ujt);
    EXPECT_EQ(samp.result.resultReg, full.result.resultReg);
    EXPECT_EQ(samp.result.memFingerprint, full.result.memFingerprint);
    EXPECT_EQ(samp.stats.count("sampling.fallback"), 0u);
    EXPECT_GT(samp.require("sampling.windows"), 0u);

    // The CPI estimate is statistical; this is a plumbing sanity band,
    // not the accuracy floor (bench/sampling_validation enforces that).
    const double cpiF = static_cast<double>(full.result.cycles) /
                        static_cast<double>(full.result.retiredUops);
    const double cpiS = static_cast<double>(samp.result.cycles) /
                        static_cast<double>(samp.result.retiredUops);
    EXPECT_GT(cpiS, 0.3 * cpiF);
    EXPECT_LT(cpiS, 3.0 * cpiF);
}

} // namespace
} // namespace wisc
