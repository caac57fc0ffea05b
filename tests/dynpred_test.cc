/**
 * @file
 * Dynamic-predication suite (ctest label dynpred-tsan, matched by
 * `ctest -L dynpred` and the ThreadSanitizer job's `-L tsan`).
 *
 * Covers, in order:
 *  - MergePointTable learning: if-then and if-then-else reconvergence
 *    from synthetic retired streams, usefulness training, tracking
 *    budget, and checkpoint round-trips;
 *  - end-to-end region correctness: MergePoint and FetchGate runs must
 *    reproduce the functional emulator's architectural results, with
 *    both the region-success and the region-failure (missed merge
 *    point) paths exercised;
 *  - the attribution invariant in every dynPred mode (the CPI stack
 *    sums exactly to cycles);
 *  - the confidence history-oracle regression: the estimate the core
 *    consulted at fetch for every retired branch must be reproducible
 *    from a parallel estimator fed only retired-order updates under the
 *    fetch-time (actual-outcome) history — wrong-path fetches must
 *    leave no trace in the estimator;
 *  - nested wish × dynamic regions: a differential fuzz campaign over
 *    machines that run compiler wish branches and hardware merge-point
 *    regions simultaneously, with flush recovery under ROB pressure;
 *  - sampled-simulation guards: the MergePoint/fast-forward exclusion,
 *    the 0-window fallback, and the 1-window case reporting its CPI
 *    confidence interval as unavailable instead of dividing by zero.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/emulator.hh"
#include "arch/executor.hh"
#include "common/bytes.hh"
#include "common/stats.hh"
#include "fuzz/fuzzer.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "harness/sampled_runner.hh"
#include "uarch/confidence.hh"
#include "uarch/mergepoint.hh"
#include "uarch/probe.hh"

namespace wisc {
namespace {

// ---------------------------------------------------------------------
// MergePointTable unit tests
// ---------------------------------------------------------------------

/** Retire a linear run of non-branch µops [from, to). */
void
retireLinear(MergePointTable &t, std::uint32_t from, std::uint32_t to)
{
    for (std::uint32_t pc = from; pc < to; ++pc)
        t.onRetire(pc, pc + 1, false, 0);
}

TEST(MergePointTable, LearnsIfThenReconvergence)
{
    // Hammock: Br@10 (taken target 20) over a 9-µop then-block; both
    // paths reconverge at 20, which is exactly the taken target.
    MergePointTable t(64, 96);

    // Not-taken traversal: the branch allocates merge=20, the tracker
    // walks the then-block and confirms at 20.
    t.onRetire(10, 11, true, 20);
    retireLinear(t, 11, 20);
    t.onRetire(20, 21, false, 0);
    EXPECT_FALSE(t.predict(10, 2).has_value()) << "one confirmation";

    // Taken traversal confirms again (branch retires straight to 20).
    t.onRetire(10, 20, true, 20);
    t.onRetire(20, 21, false, 0);

    auto m = t.predict(10, 2);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, 20u);
}

TEST(MergePointTable, LearnsIfThenElseFromJumpOverElse)
{
    // if-then-else: Br@10 taken->14 (else), then-block 11..13 ends with
    // Jmp@13 -> 18 (join), else-block 14..17 falls into 18.
    MergePointTable t(64, 96);

    // Not-taken traversal: initial estimate is the taken target (14);
    // the Jmp@13 retires with nextPc 18 — a forward jump past the
    // estimate — which moves the merge estimate to 18.
    t.onRetire(10, 11, true, 14);
    retireLinear(t, 11, 13);
    t.onRetire(13, 18, false, 0); // the jump over the else-block
    t.onRetire(18, 19, false, 0); // lands at 18: first confirmation
    EXPECT_FALSE(t.predict(10, 2).has_value())
        << "moving the estimate resets confirmation, so only the "
           "arrival at 18 has confirmed so far";

    // Taken traversal walks the else-block and confirms 18 again.
    t.onRetire(10, 14, true, 14);
    retireLinear(t, 14, 18);
    t.onRetire(18, 19, false, 0);

    auto m = t.predict(10, 2);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, 18u);
}

TEST(MergePointTable, BackwardExitAbandonsTheSample)
{
    // A loop back edge inside the tracked region: no forward
    // reconvergence, the sample is abandoned, nothing confirms.
    MergePointTable t(64, 96);
    t.onRetire(10, 11, true, 20);
    t.onRetire(11, 5, false, 0); // backwards, out of the hammock
    t.onRetire(20, 21, false, 0);
    EXPECT_FALSE(t.predict(10, 1).has_value());
}

TEST(MergePointTable, TrackingBudgetBoundsTheWalk)
{
    // Budget of 4 retired µops: a 9-µop then-block never confirms.
    MergePointTable t(64, 4);
    t.onRetire(10, 11, true, 20);
    retireLinear(t, 11, 20);
    t.onRetire(20, 21, false, 0);
    EXPECT_FALSE(t.predict(10, 1).has_value());
}

TEST(MergePointTable, UsefulnessKillsAndRevivesEntries)
{
    MergePointTable t(64, 96);
    for (int pass = 0; pass < 2; ++pass) {
        t.onRetire(10, 20, true, 20);
        t.onRetire(20, 21, false, 0);
    }
    ASSERT_TRUE(t.predict(10, 2).has_value());

    // One failed region (allocation usefulness is 1, failure costs 2).
    t.noteOutcome(10, /*failed=*/true, /*mispredicted=*/true);
    EXPECT_FALSE(t.predict(10, 2).has_value())
        << "a failed region must suppress further predictions";

    // A successful flush-saving region revives it.
    t.noteOutcome(10, /*failed=*/false, /*mispredicted=*/true);
    EXPECT_TRUE(t.predict(10, 2).has_value());

    // Persistent "predictor was right anyway" decay kills it again.
    for (int i = 0; i < 4; ++i)
        t.noteOutcome(10, /*failed=*/false, /*mispredicted=*/false);
    EXPECT_FALSE(t.predict(10, 2).has_value());
}

TEST(MergePointTable, CheckpointRoundTripsMidTracking)
{
    MergePointTable t(64, 96);
    t.onRetire(10, 20, true, 20);
    t.onRetire(20, 21, false, 0);
    t.onRetire(10, 11, true, 20); // leave a sample mid-flight
    retireLinear(t, 11, 15);

    StateIO w;
    t.io(w);
    const std::string buf = w.take();

    MergePointTable u(64, 96);
    StateIO r(buf);
    u.io(r);
    ASSERT_TRUE(r.done());

    // The restored table finishes the interrupted walk identically.
    retireLinear(t, 15, 20);
    t.onRetire(20, 21, false, 0);
    retireLinear(u, 15, 20);
    u.onRetire(20, 21, false, 0);
    auto mt = t.predict(10, 2);
    auto mu = u.predict(10, 2);
    ASSERT_TRUE(mt.has_value());
    ASSERT_TRUE(mu.has_value());
    EXPECT_EQ(*mt, *mu);
}

// ---------------------------------------------------------------------
// End-to-end region correctness
// ---------------------------------------------------------------------

RunOutcome
dynRun(const Program &prog, DynPredMode mode, bool perfectConf,
       const std::vector<ProbeSink *> &sinks = {})
{
    SimParams p;
    p.wishEnabled = false; // normal binaries: no compiler hints
    p.dynPred = mode;
    p.oracle.perfectConfidence = perfectConf;
    return captureRun(prog, p, sinks);
}

/** MergePoint regions — including failed ones — must be architecturally
 *  invisible: same result register, same memory fingerprint as the
 *  functional emulator, on machines that trigger heavily (the perfect
 *  confidence oracle flags every mispredicted branch low-confidence). */
TEST(DynPredRegion, MergePointMatchesEmulatorWithFailedRegions)
{
    bool sawFailure = false, sawSuccess = false;
    for (const char *name : {"gzip", "vpr", "mcf"}) {
        CompiledWorkload w = compileWorkload(name);
        Program prog =
            programFor(w, BinaryVariant::Normal, InputSet::A);

        Emulator emu;
        EmuResult ref = emu.run(prog);
        ASSERT_TRUE(ref.halted) << name;

        RunOutcome r =
            dynRun(prog, DynPredMode::MergePoint, /*perfectConf=*/true);
        ASSERT_TRUE(r.result.halted) << name;
        EXPECT_EQ(r.result.resultReg, ref.resultReg) << name;
        EXPECT_EQ(r.result.memFingerprint, ref.memFingerprint) << name;

        EXPECT_GT(r.require("dyn.triggers"), 0u) << name;
        // Triggers squashed by an older branch's flush resolve as
        // neither success nor failure, so <= rather than ==.
        EXPECT_LE(r.require("dyn.region_success") +
                      r.require("dyn.region_failed"),
                  r.require("dyn.triggers"))
            << name;
        sawFailure |= r.require("dyn.region_failed") > 0;
        sawSuccess |= r.require("dyn.region_success") > 0;
    }
    EXPECT_TRUE(sawFailure)
        << "the missed-merge-point flush path was never exercised";
    EXPECT_TRUE(sawSuccess)
        << "no region ever reconverged; the mechanism is inert";
}

/** FetchGate is pure timing: architectural results identical to the
 *  emulator, strictly more cycles than the ungated machine (every gate
 *  is an injected stall), and gates actually fired. */
TEST(DynPredRegion, FetchGateStallsWithoutArchEffects)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    Emulator emu;
    EmuResult ref = emu.run(prog);

    RunOutcome off = dynRun(prog, DynPredMode::Off, false);
    RunOutcome gate = dynRun(prog, DynPredMode::FetchGate, false);

    ASSERT_TRUE(gate.result.halted);
    EXPECT_EQ(gate.result.resultReg, ref.resultReg);
    EXPECT_EQ(gate.result.memFingerprint, ref.memFingerprint);
    EXPECT_EQ(gate.result.retiredUops, off.result.retiredUops)
        << "fetch gating must not add or drop retired µops";
    EXPECT_GT(gate.require("dyn.fetch_gates"), 0u);
    EXPECT_GT(gate.result.cycles, off.result.cycles);
}

/** dynPred=Off must not even register the dyn.* counters — the golden
 *  statistics namespace is bit-identical to the pre-dynPred machine. */
TEST(DynPredRegion, OffModeRegistersNoDynCounters)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);
    RunOutcome off = dynRun(prog, DynPredMode::Off, false);
    for (const auto &kv : off.stats)
        EXPECT_NE(kv.first.rfind("dyn.", 0), 0u) << kv.first;

    RunOutcome on = dynRun(prog, DynPredMode::MergePoint, false);
    EXPECT_EQ(on.stat("dyn.triggers"), on.require("dyn.triggers"));
}

/** The CPI stack must stay exhaustive and exclusive in every dynamic
 *  mode: nullified region µops, deferred trigger resolution and gate
 *  stalls all land in exactly one bucket. */
TEST(DynPredRegion, AttributionSumsToCyclesInEveryMode)
{
    const char *const kBuckets[] = {
        "attrib.base",            "attrib.pred_nop",
        "attrib.pred_wait",       "attrib.flush_normal",
        "attrib.flush_wish_high", "attrib.flush_loop_early",
        "attrib.flush_loop_noexit", "attrib.cache_miss",
        "attrib.fetch_stall",     "attrib.rob_iq_full",
    };
    CompiledWorkload w = compileWorkload("vpr");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    for (DynPredMode mode : {DynPredMode::Off, DynPredMode::MergePoint,
                             DynPredMode::FetchGate}) {
        SimParams p;
        p.wishEnabled = false;
        p.dynPred = mode;
        p.oracle.perfectConfidence = true; // maximize triggers/gates
        p.collectAttribution = true;
        RunOutcome r = captureRun(prog, p);
        ASSERT_TRUE(r.result.halted);
        std::uint64_t sum = 0;
        for (const char *b : kBuckets)
            sum += r.require(b);
        EXPECT_EQ(sum, r.result.cycles)
            << "mode " << static_cast<int>(mode);
    }
}

// ---------------------------------------------------------------------
// Confidence history-oracle regression (the fidelity audit)
// ---------------------------------------------------------------------

struct ConfRecord
{
    std::uint64_t uid;
    std::uint32_t pc;
    Cycle fetchCycle;
    Cycle retireCycle;
    bool highConf;
    bool mispredicted;
};

/** Records the fetch cycle of every µop and the confidence decision of
 *  every retired conditional branch. */
struct ConfSink final : ProbeSink
{
    std::unordered_map<std::uint64_t, Cycle> fetchCycle;
    std::vector<ConfRecord> records;

    void
    onFetch(const FetchProbe &p) override
    {
        fetchCycle.emplace(p.uid, p.cycle);
    }

    void
    onRetire(const RetireProbe &p) override
    {
        if (!p.isCondBr || !p.confValid)
            return;
        auto it = fetchCycle.find(p.uid);
        ASSERT_NE(it, fetchCycle.end());
        records.push_back(ConfRecord{p.uid, p.pc, it->second, p.cycle,
                                     p.highConf, p.mispredicted});
    }
};

/**
 * The audit's contract, checked end-to-end: the confidence value the
 * core consulted at fetch equals what a parallel JRS estimator
 * produces when fed only *retired-order* updates under each branch's
 * actual-outcome global history. Two things break this if the
 * squash/update plumbing regresses:
 *  - a wrong-path fetch mutating estimator state (queries must be
 *    pure), or
 *  - an update keyed to resolve-time instead of fetch-time history.
 * The only tolerated ambiguity is a branch retiring on the very cycle
 * a later one is fetched — intra-cycle stage order is not part of the
 * contract, so both pre- and post-update estimates are accepted there.
 */
TEST(ConfidenceHistoryOracle, FetchEstimateMatchesRetireOrderedReplay)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    SimParams params;
    params.wishEnabled = false;
    params.dynPred = DynPredMode::FetchGate; // estimator on, no regions
    ConfSink sink;
    RunOutcome r = captureRun(prog, params, {&sink});
    ASSERT_TRUE(r.result.halted);
    ASSERT_FALSE(sink.records.empty());
    ASSERT_EQ(sink.records.size(), r.require("core.cond_branches"));

    // Functional replay: the retired conditional-branch stream with
    // actual taken directions.
    struct FuncBr
    {
        std::uint32_t pc;
        bool taken;
    };
    std::vector<FuncBr> funcBrs;
    {
        ArchState st;
        st.loadData(prog);
        std::uint32_t pc = prog.entry();
        const auto codeSize = static_cast<std::uint32_t>(prog.size());
        while (true) {
            const Instruction &inst = prog.at(pc);
            StepResult s = executeInst(inst, pc, codeSize, st, nullptr);
            if (inst.op == Opcode::Br)
                funcBrs.push_back(FuncBr{pc, s.taken});
            if (s.halted)
                break;
            pc = s.nextIndex;
        }
    }
    ASSERT_EQ(funcBrs.size(), sink.records.size());

    // Retired-order replay against a parallel estimator.
    StatSet oracleStats;
    JrsConfidenceEstimator oracle(params, oracleStats);
    std::uint64_t hist = 0;
    std::vector<std::uint64_t> histAtFetch(funcBrs.size());
    for (std::size_t i = 0; i < funcBrs.size(); ++i) {
        ASSERT_EQ(sink.records[i].pc, funcBrs[i].pc) << "at branch " << i;
        histAtFetch[i] = hist;
        hist = (hist << 1) | (funcBrs[i].taken ? 1 : 0);
    }

    std::size_t applied = 0;
    std::size_t ambiguous = 0;
    for (std::size_t i = 0; i < sink.records.size(); ++i) {
        const ConfRecord &rec = sink.records[i];
        while (applied < i &&
               sink.records[applied].retireCycle < rec.fetchCycle) {
            const ConfRecord &u = sink.records[applied];
            oracle.update(u.pc, histAtFetch[applied], !u.mispredicted);
            ++applied;
        }
        const bool strict = oracle.estimate(rec.pc, histAtFetch[i]);
        if (strict == rec.highConf)
            continue;
        // Same-cycle retire/fetch tie: peek past the tied updates.
        JrsConfidenceEstimator peek = oracle;
        std::size_t k = applied;
        bool matched = false;
        while (k < i &&
               sink.records[k].retireCycle == rec.fetchCycle) {
            const ConfRecord &u = sink.records[k];
            peek.update(u.pc, histAtFetch[k], !u.mispredicted);
            ++k;
            if (peek.estimate(rec.pc, histAtFetch[i]) == rec.highConf) {
                matched = true;
                break;
            }
        }
        ++ambiguous;
        ASSERT_TRUE(matched)
            << "branch " << i << " @pc " << rec.pc
            << ": fetch-time estimate " << rec.highConf
            << " is not reproducible from retired-order updates";
    }
    // Ties must be the exception, not the rule — if most decisions need
    // the tie-break the strict replay model itself is wrong.
    EXPECT_LT(ambiguous, sink.records.size() / 10);
}

// ---------------------------------------------------------------------
// Nested wish × dynamic regions (differential property test)
// ---------------------------------------------------------------------

/** Machines running compiler wish branches and hardware merge-point
 *  regions at the same time, differentially fuzzed against the
 *  reference emulator across all five binary variants. The small-ROB
 *  point forces flushes to land while regions and predicate buffers
 *  are live (the §3.5.3/§3.5.4 recovery interaction). */
TEST(NestedWishDynPred, FuzzCampaignFindsNoDivergence)
{
    FuzzOptions opts;
    opts.seed = 20260808;
    opts.runs = 40;
    opts.shrink = false; // report raw; this is a regression gate
    opts.matrix.clear();
    {
        SimParams p;
        p.checkFinalState = false;
        p.maxCycles = 20'000'000;
        p.maxRetired = 20'000'000;
        p.dynPred = DynPredMode::MergePoint;
        p.dynMergeMinConf = 1;
        p.dynMergeEntries = 64;
        p.confSets = 16;
        p.confHistBits = 4;
        p.confThreshold = 6;
        opts.matrix.push_back({"wish+dynpred", p});

        p.robSize = 32;
        p.iqSize = 8;
        p.lsqSize = 16;
        p.dynMaxRegionUops = 16;
        opts.matrix.push_back({"wish+dynpred-tiny-rob", p});
    }

    FuzzReport rep = fuzzCampaign(opts, nullptr);
    EXPECT_GT(rep.coreRuns, 0u);
    for (const FuzzFailure &f : rep.failures)
        ADD_FAILURE() << f.kind << ": " << f.detail
                      << " (seed " << f.seed << ")";
    EXPECT_TRUE(rep.ok());
}

/** Directed version: a hand-written kernel whose loop body holds both a
 *  compiler-marked wish hammock and an unmarked hammock on the same
 *  pseudo-random state, under ROB pressure. The compiled workloads
 *  cannot serve here — the wish compiler marks *every* forward hammock
 *  in those small kernels, leaving only backward loop branches
 *  unmarked, and the merge table only learns forward reconvergence —
 *  so this is the one place both mechanisms can provably interleave.
 *  The run must match the emulator architecturally and must fire both
 *  wish predication and hardware regions. */
TEST(NestedWishDynPred, WishBinaryWithMergePointMatchesEmulator)
{
    // Full-period LCG (mod 2^13) drives both hammock conditions, so
    // neither branch settles into a predictable streak: the wish jump
    // keeps entering low-confidence mode and the unmarked branch keeps
    // presenting low-confidence trigger opportunities.
    Program prog = assemble(R"(
        li r11, 2500
        li r13, 524288
        li r10, 0
        li r4, 0
        li r20, 12345
    loop:
        muli r20, r20, 13
        addi r20, r20, 7
        andi r20, r20, 8191
        ; wish hammock on bit 3: then-block under p2, else under p1.
        andi r21, r20, 8
        cmpi.eq p1, p2, r21, 0
        wish.jump p1, welse
        (p2) add r4, r4, r20
        (p2) xori r4, r4, 85
        (p2) addi r4, r4, 3
        wish.join p2, wjoin
    welse:
        (p1) muli r22, r20, 3
        (p1) add r4, r4, r22
        (p1) addi r4, r4, 1
    wjoin:
        ; unmarked hammock on bit 5: the merge-point candidate.
        andi r23, r20, 32
        cmpi.eq p3, p0, r23, 0
        br p3, hjoin
        add r4, r4, r20
        xori r4, r4, 51
        addi r4, r4, 9
    hjoin:
        ; store a checksum byte so the memory fingerprint carries
        ; signal through the comparison below.
        andi r24, r4, 255
        andi r25, r20, 4095
        add r26, r13, r25
        st r24, r26, 0
        addi r10, r10, 1
        cmp.lt p7, p0, r10, r11
        br p7, loop
        halt
    )");

    Emulator emu;
    EmuResult ref = emu.run(prog);
    ASSERT_TRUE(ref.halted);

    // A high JRS threshold keeps both data-dependent branches in the
    // low-confidence regime; one merge-table confirmation suffices.
    SimParams p;
    p.wishEnabled = true;
    p.dynPred = DynPredMode::MergePoint;
    p.dynMergeMinConf = 1;
    p.confThreshold = 14;
    p.robSize = 64;
    p.iqSize = 16;
    p.lsqSize = 32;
    RunOutcome r = captureRun(prog, p);
    ASSERT_TRUE(r.result.halted);
    EXPECT_EQ(r.result.resultReg, ref.resultReg);
    EXPECT_EQ(r.result.memFingerprint, ref.memFingerprint);
    EXPECT_GT(r.require("dyn.triggers"), 0u)
        << "hardware regions never fired next to wish branches";
    EXPECT_GT(r.stat("wish.low_conf_entries"), 0u)
        << "wish predication never fired";
}

// ---------------------------------------------------------------------
// Sampled-simulation guards (satellite 3)
// ---------------------------------------------------------------------

TEST(SampledDynPred, MergePointIsRejectedByTheSampler)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);
    SimParams p;
    p.sampling.enabled = true;
    p.dynPred = DynPredMode::MergePoint;
    EXPECT_DEATH(runSampled(prog, p), "merge-point");
}

TEST(SampledRunner, ZeroMeasuredWindowsFallsBackToFullRun)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    // A period far past the program's end: the first window start is
    // beyond the functional run, so no window measures anything.
    SimParams p;
    p.sampling.enabled = true;
    p.sampling.periodUops = 1'000'000'000'000ull;
    RunOutcome r = runSampled(prog, p);
    ASSERT_TRUE(r.result.halted);
    EXPECT_EQ(r.stat("sampling.fallback"), 1u);

    RunOutcome full = captureRun(prog, SimParams{});
    EXPECT_EQ(r.result.cycles, full.result.cycles);
    EXPECT_EQ(r.result.memFingerprint, full.result.memFingerprint);
}

/** One measured window: a CPI estimate exists but has no variance to
 *  derive a confidence interval from. The half-width must be reported
 *  as unavailable (valid=0, no cpi_se stat) — not as a silent 0.0 from
 *  a 0/0 division, which reads as perfect confidence downstream. */
TEST(SampledRunner, SingleWindowReportsSeUnavailable)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    // Learn the program's invariant length, then pick a period that
    // lands exactly one window inside it.
    Emulator emu;
    EmuResult ref = emu.run(prog);
    ASSERT_TRUE(ref.halted);
    const std::uint64_t qpTrue = ref.dynInsts - ref.predFalse;

    SimParams p;
    p.sampling.enabled = true;
    p.sampling.periodUops = qpTrue; // first window at qpTrue/2, no 2nd
    p.sampling.warmupUops = 200;
    p.sampling.measureUops = 500;
    RunOutcome r = runSampled(prog, p);
    ASSERT_TRUE(r.result.halted);
    ASSERT_EQ(r.require("sampling.windows"), 1u);
    EXPECT_EQ(r.require("sampling.cpi_se_valid"), 0u);
    EXPECT_EQ(r.stats.count("sampling.cpi_se_x1e6"), 0u)
        << "an unavailable half-width must not be emitted at all";
    EXPECT_GT(r.require("sampling.cpi_x1e6"), 0u)
        << "the point estimate itself is still available";
}

/** Two windows restore the normal report shape (regression guard for
 *  the valid flag's polarity). */
TEST(SampledRunner, TwoWindowsReportAValidSe)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::Normal, InputSet::A);

    Emulator emu;
    EmuResult ref = emu.run(prog);
    const std::uint64_t qpTrue = ref.dynInsts - ref.predFalse;

    SimParams p;
    p.sampling.enabled = true;
    p.sampling.periodUops = qpTrue / 2; // windows at ~25% and ~75%
    p.sampling.warmupUops = 200;
    p.sampling.measureUops = 500;
    RunOutcome r = runSampled(prog, p);
    ASSERT_TRUE(r.result.halted);
    ASSERT_GE(r.require("sampling.windows"), 2u);
    EXPECT_EQ(r.require("sampling.cpi_se_valid"), 1u);
    EXPECT_EQ(r.stats.count("sampling.cpi_se_x1e6"), 1u);
}

} // namespace
} // namespace wisc
