/**
 * @file
 * Detailed timing-model tests: MSHR limiting, the fetch group rules
 * (taken-branch stop, conditional-branch cap), select-µop expansion
 * accounting, NO-FETCH's treatment of unconditional compares, the
 * predicate-dependency-elimination speedup in high-confidence mode and
 * the dependences it keeps, and which store a load issues behind.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <unordered_map>

#include "compiler/builder.hh"
#include "compiler/driver.hh"
#include "isa/assembler.hh"
#include "uarch/core.hh"

namespace wisc {
namespace {

SimResult
run(const Program &p, const SimParams &params, StatSet &stats)
{
    return simulate(p, params, stats);
}

SimResult
run(const Program &p, const SimParams &params = SimParams{})
{
    StatSet stats;
    return run(p, params, stats);
}

TEST(CoreDetail, MshrLimitThrottlesIndependentMisses)
{
    // 64 independent loads from distinct cold lines.
    std::string src = "li r6, 0x300000\nli r4, 0\n";
    for (int i = 0; i < 64; ++i)
        src += "ld r" + std::to_string(10 + (i % 16)) + ", r6, " +
               std::to_string(i * 4096) + "\n";
    src += "halt\n";
    Program p = assemble(src);

    SimParams wide;
    wide.maxOutstandingMisses = 64;
    SimParams narrow;
    narrow.maxOutstandingMisses = 2;
    SimResult rw = run(p, wide);
    SimResult rn = run(p, narrow);
    EXPECT_GT(rn.cycles, rw.cycles * 3)
        << "2 MSHRs must serialize what 64 MSHRs overlap";
}

TEST(CoreDetail, FetchStopsAtPredictedTakenBranch)
{
    // A tight loop of 2 µops: fetch can never exceed ~2 µops/cycle
    // because every group ends at the taken backward branch.
    Program p = assemble(R"(
        li r5, 0
        loop:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 3000
        br p1, loop
        li r4, 1
        halt
    )");
    StatSet stats;
    SimResult r = run(p, SimParams{}, stats);
    // 3 µops per iteration, one fetch group per iteration.
    EXPECT_GT(r.cycles, 2900u);
}

TEST(CoreDetail, SelectUopDoublesPredicatedUops)
{
    Program p = assemble(R"(
        pset p1, 1
        li r5, 0
        loop:
        (p1) addi r6, r6, 1
        (p1) addi r7, r7, 1
        addi r5, r5, 1
        cmpi.lt p2, p0, r5, 100
        br p2, loop
        li r4, 1
        halt
    )");
    SimParams cstyle;
    SimParams sel;
    sel.predMech = PredMechanism::SelectUop;
    StatSet s1, s2;
    run(p, cstyle, s1);
    run(p, sel, s2);
    // Two predicated register-writing µops per iteration expand 2x.
    std::uint64_t diff =
        s2.get("core.retired_uops") - s1.get("core.retired_uops");
    EXPECT_GE(diff, 190u);
    EXPECT_LE(diff, 210u);
}

TEST(CoreDetail, NoFetchKeepsUncCompareEffects)
{
    // The unc compare under a FALSE guard must still clear its targets
    // even with the NO-FETCH oracle, or results would change.
    KernelBuilder b;
    b.li(10, 7);
    b.cmpi(Opcode::CmpLtI, 1, 2, 10, 5); // false: p1=0, p2=1
    b.ifThenElse(1, 2, [&] { b.li(4, 100); }, [&] { b.li(4, 200); });
    IrFunction fn = b.finish();
    auto variants = compileAllVariants(fn);
    const Program &pred =
        variants.at(BinaryVariant::BaseMax).program;

    SimParams nofetch;
    nofetch.oracle.noFetch = true;
    SimResult r = run(pred, nofetch); // checkFinalState validates
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 200);
}

TEST(CoreDetail, HighConfPredicatePredictionSpeedsDependents)
{
    // A predicated chain fed by a slow (cache-missing) compare input:
    // in high-confidence mode the predicate is predicted, so the chain
    // need not wait. Compare wish hardware on vs off on the same
    // wish binary with a perfectly predictable branch.
    KernelBuilder b;
    b.li(10, 0);
    b.li(12, 0x400000);
    b.li(4, 0);
    b.doWhileLoop(7, [&] {
        b.muli(30, 10, 4096);
        b.add(30, 30, 12);
        b.ld(20, 30, 0); // always 0: cold miss
        b.cmpi(Opcode::CmpGeI, 1, 2, 20, 0); // always TRUE
        b.ifThenElse(
            1, 2,
            [&] {
                b.addi(4, 4, 1);
                b.addi(4, 4, 2);
                b.addi(4, 4, 3);
                b.addi(4, 4, 4);
                b.addi(4, 4, 5);
                b.addi(4, 4, 6);
            },
            [&] {
                b.addi(4, 4, 7);
                b.addi(4, 4, 8);
                b.addi(4, 4, 9);
                b.addi(4, 4, 10);
                b.addi(4, 4, 11);
                b.addi(4, 4, 12);
            });
        b.addi(10, 10, 1);
        b.cmpi(Opcode::CmpLtI, 7, 0, 10, 300);
    });
    IrFunction fn = b.finish();
    auto variants = compileAllVariants(fn);
    const Program &wjj =
        variants.at(BinaryVariant::WishJumpJoin).program;

    SimParams off;
    off.wishEnabled = false;
    SimParams perfectConf;
    perfectConf.oracle.perfectConfidence = true;

    SimResult roff = run(wjj, off);
    SimResult rperf = run(wjj, perfectConf);
    // With perfect confidence every instance runs in high-confidence
    // mode: the predicate is predicted, the arms never wait for the
    // missing load, and performance matches plain branch prediction.
    EXPECT_LE(rperf.cycles, roff.cycles * 21 / 20);

    // The real estimator starts cold and conservatively predicates some
    // early instances (Figure 11's low-confidence-correct overhead), so
    // it may only approach that bound.
    SimResult rreal = run(wjj, SimParams{});
    EXPECT_LE(rreal.cycles, roff.cycles * 3 / 2);
    EXPECT_GE(rreal.cycles, rperf.cycles);
}

/** Counts the retired predicate combiners (pnot/pand/por) that issued
 *  before a ps/ps2 producer completed. The producer is the last
 *  retired writer of the source, read from the ISA operand roles, not
 *  from rename's dependence list. */
class PredSourceOrder : public ProbeSink
{
  public:
    void onFetch(const FetchProbe &p) override { inst_[p.uid] = p.inst; }
    void onIssue(const StageProbe &p) override { issue_[p.uid] = p.cycle; }
    void
    onComplete(const StageProbe &p) override
    {
        complete_[p.uid] = p.cycle;
    }
    void
    onRetire(const RetireProbe &p) override
    {
        const Instruction &si = *inst_.at(p.uid);
        if (isPredOp(si.op) && !p.predFalse) {
            ++combiners;
            const bool two = opForm(si.op) == OpForm::PPP;
            for (PredIdx s : {si.ps, two ? si.ps2 : PredIdx{0}})
                if (s != 0 && writer_[s] != 0 &&
                    issue_.at(p.uid) < complete_.at(writer_[s]))
                    ++early;
        }
        if (si.writesPred())
            for (PredIdx d : {si.pd, si.pd2})
                if (d != kPredNone)
                    writer_[d] = p.uid;
    }

    std::uint64_t combiners = 0;
    std::uint64_t early = 0;

  private:
    std::unordered_map<std::uint64_t, const Instruction *> inst_;
    std::unordered_map<std::uint64_t, Cycle> issue_, complete_;
    std::array<std::uint64_t, kNumPredRegs> writer_{};
};

TEST(CoreDetail, PredictedTrueCombinerWaitsForItsPredicateSources)
{
    // The compare records p2 as p1's complement. The wish jump is never
    // taken, so with perfect confidence it is estimated high and arms
    // the §3.5.3 buffer: p1 FALSE, p2 TRUE. Each (p2) combiner is then
    // predicted TRUE, and must still wait for the compares it combines,
    // which wait on a cold load.
    Program p = assemble(R"(
        li r12, 0x400000
        li r10, 0
        loop:
        cmpi.lt p1, p2, r10, 0
        wish.jump p1, skip
        muli r30, r10, 4096
        add r30, r30, r12
        ld r20, r30, 0
        cmpi.ge p3, p0, r20, 0
        cmpi.lt p4, p0, r20, 1
        (p2) pnot p5, p3
        (p2) pand p6, p3, p4
        (p2) por p7, p3, p4
        skip:
        addi r10, r10, 1
        cmpi.lt p8, p0, r10, 64
        br p8, loop
        halt
    )");
    SimParams params;
    params.oracle.perfectConfidence = true;
    StatSet stats;
    PredSourceOrder order;
    SimResult r = simulate(p, params, stats, {&order});
    ASSERT_TRUE(r.halted);
    EXPECT_GT(stats.get("wish.jump.high.correct"), 0u);
    EXPECT_EQ(order.combiners, 3u * 64);
    EXPECT_EQ(order.early, 0u);
}

/** Records the issue and completion cycles of a straight-line
 *  program's µops by opcode; each opcode a test reads appears once. */
class CyclesByOpcode : public ProbeSink
{
  public:
    void onFetch(const FetchProbe &p) override { op_[p.uid] = p.inst->op; }
    void
    onIssue(const StageProbe &p) override
    {
        issue[op_.at(p.uid)] = p.cycle;
    }
    void
    onComplete(const StageProbe &p) override
    {
        complete[op_.at(p.uid)] = p.cycle;
    }

    std::map<Opcode, Cycle> issue, complete;

  private:
    std::unordered_map<std::uint64_t, Opcode> op_;
};

TEST(CoreDetail, LoadIssuesBehindTheYoungestOlderOverlappingStore)
{
    // An 8-byte store whose data waits on a divide, then a one-byte
    // store, then an 8-byte load of bytes 4..11: the slow store's upper
    // half and the next word's first four bytes.
    auto cycles = [](int st1Offset) {
        Program p = assemble("li r6, 0x40000\n"
                             "li r1, 1000\n"
                             "li r2, 7\n"
                             "div r3, r1, r2\n"
                             "st r3, r6, 0\n"
                             "li r4, 5\n"
                             "st1 r4, r6, " +
                             std::to_string(st1Offset) +
                             "\n"
                             "ld r5, r6, 4\n"
                             "halt\n");
        CyclesByOpcode c;
        StatSet stats;
        EXPECT_TRUE(simulate(p, SimParams{}, stats, {&c}).halted);
        return c;
    };

    // The one-byte store writes byte 8, inside the load: it is the
    // youngest older overlapping store, so the load issues behind it,
    // before the slow store completes.
    CyclesByOpcode inside = cycles(8);
    EXPECT_LT(inside.issue.at(Opcode::Ld), inside.complete.at(Opcode::St));

    // At byte 16 it is outside the load, and the slow store decides.
    CyclesByOpcode outside = cycles(16);
    EXPECT_GE(outside.issue.at(Opcode::Ld),
              outside.complete.at(Opcode::St));
}

TEST(CoreDetail, FlushRestoresStoreOrdering)
{
    // Store -> mispredicted branch -> wrong-path store: after the
    // flush, a load must see the first store's value.
    Program p = assemble(R"(
        li r6, 0x70000
        li r5, 0
        li r9, 777
        loop:
        muli r9, r9, 69069
        addi r9, r9, 13
        shri r7, r9, 15
        andi r7, r7, 1
        st r7, r6, 0
        cmpi.eq p1, p2, r7, 1
        br p1, skip
        addi r4, r4, 1
        st r4, r6, 8
        skip:
        ld r8, r6, 0
        add r4, r4, r8
        addi r5, r5, 1
        cmpi.lt p3, p0, r5, 400
        br p3, loop
        halt
    )");
    SimResult r = run(p); // checkFinalState cross-checks vs emulator
    EXPECT_TRUE(r.halted);
}

TEST(CoreDetail, MaxCyclesSafetyStopsRunawayProgram)
{
    Program p = assemble(R"(
        loop:
        jmp loop
        halt
    )");
    SimParams params;
    params.maxCycles = 5000;
    params.checkFinalState = false;
    SimResult r = run(p, params);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.cycles, 5000u);
}

TEST(CoreDetail, DeeperPipelineRaisesMispredictPenaltyRoughlyLinearly)
{
    Program p = assemble(R"(
        li r5, 0
        li r6, 424242
        loop:
        muli r6, r6, 1103515245
        addi r6, r6, 12345
        shri r7, r6, 17
        andi r7, r7, 1
        cmpi.eq p1, p2, r7, 1
        br p1, skip
        addi r4, r4, 1
        skip:
        addi r5, r5, 1
        cmpi.lt p3, p0, r5, 1200
        br p3, loop
        halt
    )");
    SimParams d10, d30;
    d10.pipelineStages = 10;
    d30.pipelineStages = 30;
    StatSet s10, s30;
    SimResult r10 = run(p, d10, s10);
    SimResult r30 = run(p, d30, s30);

    double m10 = static_cast<double>(s10.get("core.branch_mispredicts"));
    double m30 = static_cast<double>(s30.get("core.branch_mispredicts"));
    ASSERT_GT(m10, 100.0);
    ASSERT_GT(m30, 100.0);
    double extra =
        (static_cast<double>(r30.cycles) - static_cast<double>(r10.cycles)) /
        ((m10 + m30) / 2.0);
    // ~20 stages of extra penalty per misprediction.
    EXPECT_GT(extra, 10.0);
    EXPECT_LT(extra, 35.0);
}

} // namespace
} // namespace wisc
