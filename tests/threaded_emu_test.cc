/**
 * @file
 * Step-budget and dispatch regression tests for the functional
 * execution layer: threadedRun() budget semantics (zero budget, exact
 * stop at the budget, resumable legs via nextPc), equality with a plain
 * executeInst() loop, and the fast-forward engine's monotone
 * advanceTo() contract. The sampled runner's window arithmetic caps
 * every position at Emulator::kDefaultMaxSteps and assumes a leg never
 * overshoots its target by even one instruction — these tests pin that
 * contract down.
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "arch/executor.hh"
#include "arch/state_diff.hh"
#include "arch/threaded.hh"
#include "isa/assembler.hh"
#include "uarch/fastfwd.hh"
#include "workloads/workload.hh"

namespace wisc {
namespace {

/** Sum 1..10 with a predicated tail: 16 dynamic instructions of
 *  arithmetic, compares, branches, and a FALSE-qp retire. */
Program
loopProgram()
{
    return assemble(R"(
        li r4, 0
        li r5, 1
        loop:
        add r4, r4, r5
        addi r5, r5, 1
        cmpi.le p1, p0, r5, 10
        br p1, loop
        pset p2, 0
        (p2) addi r4, r4, 99
        halt
    )");
}

/**
 * The reference the threaded engine is diffed against: one executeInst()
 * per step, with the budget, halt and nextPc rules written out again.
 */
ThreadedResult
referenceRun(const Program &p, ArchState &s, std::uint64_t budget)
{
    s = ArchState();
    s.loadData(p);
    ThreadedResult r;
    r.nextPc = p.entry();
    const auto n = static_cast<std::uint32_t>(p.size());
    while (r.steps < budget && !r.halted) {
        const StepResult st = executeInst(p.code()[r.nextPc], r.nextPc, n,
                                          s, nullptr);
        EXPECT_FALSE(st.badTarget);
        ++r.steps;
        r.predFalse += st.qpTrue ? 0 : 1;
        r.halted = st.halted;
        r.nextPc = st.nextIndex;
    }
    return r;
}

/** Dynamic instructions to Halt, measured with the reference loop. */
std::uint64_t
haltSteps(const Program &p)
{
    ArchState s;
    ThreadedResult r = referenceRun(p, s, Emulator::kDefaultMaxSteps);
    EXPECT_TRUE(r.halted);
    return r.steps;
}

/** threadedRun against the reference loop under the same budget: the
 *  counts, the resume point and every architectural state word must
 *  agree. */
void
expectThreadedMatchesReference(const Program &p, std::uint64_t budget)
{
    ArchState ref, th;
    const ThreadedResult a = referenceRun(p, ref, budget);
    th.loadData(p);
    const ThreadedResult b =
        threadedRun(p, th, p.entry(), budget, NullExecHooks{});
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.predFalse, b.predFalse);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_FALSE(firstStateDiff(ref, th));
}

// ------------------------------------------------------------ step budgets

TEST(ThreadedBudget, ZeroBudgetExecutesNothing)
{
    Program p = loopProgram();
    ArchState s;
    s.loadData(p);
    ThreadedResult r = threadedRun(p, s, p.entry(), 0, NullExecHooks{});
    EXPECT_EQ(r.steps, 0u);
    EXPECT_EQ(r.predFalse, 0u);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.nextPc, p.entry());
    EXPECT_EQ(s.readReg(4), 0);
}

TEST(ThreadedBudget, StopsExactlyAtBudgetNeverOvershoots)
{
    Program p = loopProgram();
    const std::uint64_t h = haltSteps(p);
    ASSERT_GT(h, 2u);

    // Every budget short of Halt stops at *exactly* the budget — the
    // engine checks before each dispatch, so a fetch-ahead overshoot
    // would break the sampled runner's whole-run coordinate.
    for (std::uint64_t budget : {std::uint64_t{1}, h / 2, h - 1}) {
        ArchState s;
        s.loadData(p);
        ThreadedResult r =
            threadedRun(p, s, p.entry(), budget, NullExecHooks{});
        EXPECT_EQ(r.steps, budget) << "budget " << budget;
        EXPECT_FALSE(r.halted) << "budget " << budget;
    }

    // A budget of exactly the halt distance retires the Halt; any
    // surplus budget is not consumed past it.
    for (std::uint64_t budget : {h, h + 1, h + 1000}) {
        ArchState s;
        s.loadData(p);
        ThreadedResult r =
            threadedRun(p, s, p.entry(), budget, NullExecHooks{});
        EXPECT_EQ(r.steps, h) << "budget " << budget;
        EXPECT_TRUE(r.halted) << "budget " << budget;
    }
}

TEST(ThreadedBudget, ResumedLegsMatchUninterruptedRun)
{
    Program p = loopProgram();

    ArchState whole;
    whole.loadData(p);
    ThreadedResult w = threadedRun(p, whole, p.entry(),
                                   Emulator::kDefaultMaxSteps,
                                   NullExecHooks{});
    ASSERT_TRUE(w.halted);

    // Re-run in 3-instruction legs, feeding nextPc back in. Totals and
    // every architectural state word must match the one-shot run.
    ArchState legs;
    legs.loadData(p);
    std::uint64_t steps = 0, predFalse = 0;
    std::uint32_t pc = p.entry();
    bool halted = false;
    unsigned guard = 0;
    while (!halted) {
        ASSERT_LT(++guard, 100u) << "legged run failed to halt";
        ThreadedResult leg = threadedRun(p, legs, pc, 3, NullExecHooks{});
        steps += leg.steps;
        predFalse += leg.predFalse;
        pc = leg.nextPc;
        halted = leg.halted;
    }
    EXPECT_EQ(steps, w.steps);
    EXPECT_EQ(predFalse, w.predFalse);
    EXPECT_FALSE(firstStateDiff(whole, legs));
}

// ------------------------------------------------------ dispatch equality

TEST(DispatchEquality, SwitchAndThreadedBitIdenticalOnLoop)
{
    expectThreadedMatchesReference(loopProgram(), Emulator::kDefaultMaxSteps);
}

TEST(DispatchEquality, BudgetLimitedLegsAgreeAcrossEngines)
{
    // Under a budget that lands mid-loop, both loops must stop at the
    // same instruction with the same partial state.
    Program p = loopProgram();
    const std::uint64_t h = haltSteps(p);
    for (std::uint64_t budget : {h / 3, h - 1}) {
        SCOPED_TRACE(budget);
        expectThreadedMatchesReference(p, budget);
    }
}

TEST(DispatchEquality, WorkloadVariantsMatchAcrossEngines)
{
    // A real kernel in its branchy and fully wish-converted forms:
    // every opcode class the compiler emits flows through both loops,
    // and the final state must agree word for word.
    CompiledWorkload w = compileWorkload("gzip");
    for (BinaryVariant v :
         {BinaryVariant::Normal, BinaryVariant::WishJumpJoinLoop})
        expectThreadedMatchesReference(programFor(w, v, InputSet::A),
                                       Emulator::kDefaultMaxSteps);
}

// -------------------------------------------------- fast-forward contract

TEST(FastForward, AdvanceToIsMonotoneAndExact)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program p = programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    Emulator ref;
    EmuResult r = ref.run(p);
    ASSERT_TRUE(r.halted);

    SimParams sp;
    FastForward ff(p, sp);
    ff.advanceTo(100);
    EXPECT_EQ(ff.uops(), 100u); // never overshoots
    ff.advanceTo(50); // a target at or below the position is a no-op
    EXPECT_EQ(ff.uops(), 100u);
    ff.advanceTo(100);
    EXPECT_EQ(ff.uops(), 100u);

    ff.advanceTo(Emulator::kDefaultMaxSteps);
    EXPECT_TRUE(ff.halted());
    EXPECT_EQ(ff.uops(), r.dynInsts);
    EXPECT_EQ(ff.predFalse(), r.predFalse);
    EXPECT_EQ(ff.archState().readReg(4), r.resultReg);
    EXPECT_EQ(ff.archState().mem().fingerprint(), r.memFingerprint);

    // Advancing a halted engine is also a no-op.
    ff.advanceTo(Emulator::kDefaultMaxSteps);
    EXPECT_EQ(ff.uops(), r.dynInsts);
}

} // namespace
} // namespace wisc
