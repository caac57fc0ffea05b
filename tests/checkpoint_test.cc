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

std::map<std::string, std::uint64_t>
counters(const StatSet &s)
{
    std::map<std::string, std::uint64_t> m;
    for (const std::string &name : s.counterNames())
        m[name] = s.get(name);
    return m;
}

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
            Core ca(pt.params, sa);
            ca.beginRun(prog);
            ca.advance(UINT64_MAX);
            SimResult ra = ca.finishRun();
            ASSERT_TRUE(ra.halted) << pt.label << " seed " << seed;

            StatSet sb;
            Core cb(pt.params, sb);
            cb.beginRun(prog);
            cb.advance(ra.retiredUops / 3, /*drain=*/false);
            cb.advance(2 * ra.retiredUops / 3, /*drain=*/false);
            cb.advance(UINT64_MAX);
            SimResult rb = cb.finishRun();

            const std::string what =
                pt.label + " seed " + std::to_string(seed);
            expectSimResultsEqual(ra, rb, what);
            EXPECT_EQ(counters(sa), counters(sb)) << what;
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
                Core c0(pt.params, s0);
                c0.beginRun(prog);
                c0.advance(UINT64_MAX);
                SimResult r0 = c0.finishRun();
                ASSERT_TRUE(r0.halted) << pt.label << " seed " << seed;
                total = r0.retiredUops;
            }
            const std::uint64_t boundary = total / 3;

            // Reference: drain at the boundary, keep going in place.
            StatSet sa;
            Core ca(pt.params, sa);
            ca.beginRun(prog);
            ca.advance(boundary, /*drain=*/true);
            ASSERT_FALSE(ca.halted()) << pt.label << " seed " << seed;
            ca.advance(UINT64_MAX);
            SimResult ra = ca.finishRun();
            ASSERT_TRUE(ra.halted) << pt.label << " seed " << seed;

            // Round trip: same drain, checkpoint, restore elsewhere.
            StatSet sb1;
            Core cb1(pt.params, sb1);
            cb1.beginRun(prog);
            cb1.advance(boundary, /*drain=*/true);
            CoreCheckpoint ckpt;
            cb1.checkpoint(ckpt);
            cb1.finishRun();

            StatSet sb2;
            Core cb2(pt.params, sb2);
            cb2.beginRun(prog, ckpt);
            // beginRun re-warms the text image into the fresh StatSet;
            // the uninterrupted run paid that warming once, so leg 2's
            // share is the delta past the restore point.
            const std::map<std::string, std::uint64_t> warm =
                counters(sb2);
            cb2.advance(UINT64_MAX);
            SimResult rb = cb2.finishRun();

            const std::string what =
                pt.label + " seed " + std::to_string(seed);
            expectSimResultsEqual(ra, rb, what);

            // Counters are leg-local deltas and additive across the
            // boundary: leg 1 plus leg 2 (minus leg 2's duplicated
            // text-image warming) must reproduce the uninterrupted
            // totals exactly.
            std::map<std::string, std::uint64_t> sum = counters(sb1);
            for (const auto &kv : counters(sb2))
                sum[kv.first] += kv.second;
            for (const auto &kv : warm)
                sum[kv.first] -= kv.second;
            EXPECT_EQ(sum, counters(sa)) << what;
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
    EXPECT_FALSE(ckpt.hasAttribShadow);
    EXPECT_EQ(ckpt.retiredUops, ff.uops());

    StatSet ws;
    Core core(sp, ws);
    core.beginRun(prog, ckpt);
    core.advance(UINT64_MAX);
    SimResult r = core.finishRun();

    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, er.resultReg);
    EXPECT_EQ(r.memFingerprint, er.memFingerprint);

    // The qp-true coordinate identity: functional-prefix qp-true plus
    // the detailed continuation's qp-true retires equals the whole
    // functional qp-true length, even though the raw retire count
    // diverges (the core pads with nullified µops when it predicates).
    const std::uint64_t prefixQt = ff.uops() - ff.predFalse();
    const std::uint64_t contQt = (r.retiredUops - ckpt.retiredUops) -
                                 ws.get("core.retired_pred_false");
    EXPECT_EQ(prefixQt + contQt, er.dynInsts - er.predFalse);
}

/** The confidence-estimator section of a checkpoint's byte stream,
 *  located by restoring the sections before it in checkpoint order. */
ByteBuffer
confSection(const CoreCheckpoint &ckpt, const SimParams &p)
{
    StatSet s;
    ByteReader r(ckpt.bytes);
    ArchState state;
    state.restoreState(r);
    MemorySystem mem(p, s);
    mem.restoreState(r);
    std::unique_ptr<IBranchPredictor> bpred = makeBranchPredictor(p, s);
    bpred->restoreState(r);
    const std::size_t begin = r.pos();
    makeConfidenceEstimator(p, s, *bpred)->restoreState(r);
    return ByteBuffer(ckpt.bytes.begin() + begin,
                      ckpt.bytes.begin() + r.pos());
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
    Core core(sp, cs);
    core.beginRun(prog);
    core.advance(er.dynInsts / 2, /*drain=*/true);
    ASSERT_FALSE(core.halted());
    CoreCheckpoint detailed;
    core.checkpoint(detailed);
    core.finishRun();

    FastForward ff(prog, sp);
    ff.advanceTo(detailed.retiredUops);
    CoreCheckpoint warmed;
    ff.checkpoint(warmed);

    ASSERT_EQ(warmed.retiredUops, detailed.retiredUops);
    ASSERT_EQ(warmed.fetchPc, detailed.fetchPc);
    const ByteBuffer want = confSection(detailed, sp);
    const ByteBuffer got = confSection(warmed, sp);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want)
        << "fast-forward and detailed estimator state differ";
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
            Core c1(wrong, s1);
            c1.beginRun(prog, ckpt);
        },
        "different machine configuration");
    EXPECT_DEATH(
        {
            StatSet s2;
            Core c2(sp, s2);
            c2.beginRun(other, ckpt);
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
