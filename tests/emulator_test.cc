/**
 * @file
 * Unit tests for architectural state, the undo log, the instruction
 * executor (including predication and unc-compare semantics), and the
 * functional emulator with profiling.
 */

#include <vector>

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "arch/executor.hh"
#include "arch/state.hh"
#include "isa/assembler.hh"

namespace wisc {
namespace {

TEST(MemoryTest, DefaultZero)
{
    Memory m;
    EXPECT_EQ(m.readByte(0x1234), 0);
    EXPECT_EQ(m.readWord(0xdeadbeef), 0u);
}

TEST(MemoryTest, ByteAndWordRoundTrip)
{
    Memory m;
    m.writeWord(0x1000, 0x0123456789abcdefull);
    EXPECT_EQ(m.readWord(0x1000), 0x0123456789abcdefull);
    // Little endian.
    EXPECT_EQ(m.readByte(0x1000), 0xef);
    EXPECT_EQ(m.readByte(0x1007), 0x01);
}

TEST(MemoryTest, CrossPageWord)
{
    Memory m;
    Addr a = Memory::kPageSize - 3;
    m.writeWord(a, 0x1122334455667788ull);
    EXPECT_EQ(m.readWord(a), 0x1122334455667788ull);
    EXPECT_GE(m.numPages(), 2u);
}

TEST(MemoryTest, FingerprintIgnoresZeroWrites)
{
    Memory a, b;
    a.writeWord(0x5000, 42);
    a.writeWord(0x5000, 0); // back to zero
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(MemoryTest, FingerprintDetectsDifferences)
{
    Memory a, b;
    a.writeWord(0x5000, 42);
    b.writeWord(0x5000, 43);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ArchStateTest, RegisterZeroHardwired)
{
    ArchState s;
    s.writeReg(kRegZero, 99);
    EXPECT_EQ(s.readReg(kRegZero), 0);
}

TEST(ArchStateTest, PredicateZeroHardwiredTrue)
{
    ArchState s;
    s.writePred(0, false);
    EXPECT_TRUE(s.readPred(0));
}

TEST(UndoLogTest, RollbackRestoresRegsPredsMem)
{
    ArchState s;
    UndoLog log;
    s.writeReg(5, 100);
    s.writePred(3, true);
    s.mem().writeWord(0x8000, 7);

    auto m = log.mark();
    log.recordReg(5, s.readReg(5));
    s.writeReg(5, 200);
    log.recordPred(3, s.readPred(3));
    s.writePred(3, false);
    log.recordMem(0x8000, 8, s.mem().readWord(0x8000));
    s.mem().writeWord(0x8000, 9);

    log.rollbackTo(m, s);
    EXPECT_EQ(s.readReg(5), 100);
    EXPECT_TRUE(s.readPred(3));
    EXPECT_EQ(s.mem().readWord(0x8000), 7u);
}

TEST(UndoLogTest, CommitKeepsMarksValid)
{
    ArchState s;
    UndoLog log;
    log.recordReg(5, 1);
    auto m1 = log.mark();
    log.recordReg(5, 2);
    log.commitTo(m1); // retire the first entry
    auto m2 = log.mark();
    log.recordReg(6, 3);
    s.writeReg(6, 99);
    log.rollbackTo(m2, s);
    EXPECT_EQ(s.readReg(6), 3);
    EXPECT_EQ(log.size(), 1u); // the uncommitted reg-5 entry remains
}

TEST(UndoLogTest, SizeCountsOnlyLiveEntries)
{
    ArchState s;
    UndoLog log;
    EXPECT_EQ(log.size(), 0u);
    UndoLog::Mark marks[11];
    for (int i = 0; i < 10; ++i) {
        marks[i] = log.mark();
        log.recordReg(5, i);
    }
    marks[10] = log.mark();
    EXPECT_EQ(log.size(), 10u);

    log.commitTo(marks[4]); // four retire
    EXPECT_EQ(log.size(), 6u);
    log.rollbackTo(marks[7], s); // three are squashed
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(s.readReg(5), 7);
    log.commitTo(marks[2]); // already committed: no change
    EXPECT_EQ(log.size(), 3u);
    log.commitTo(log.mark());
    EXPECT_EQ(log.size(), 0u);

    // Storage grows past the live count and never shrinks; size() still
    // counts only what is live.
    for (int i = 0; i < 1000; ++i)
        log.recordPred(3, i % 2 != 0);
    log.commitTo(log.mark() - 1);
    EXPECT_EQ(log.size(), 1u);
}

/** Drives an UndoLog as the core does: each "µop" records a register,
 *  a predicate, a word and a byte, and the oldest retires (commits)
 *  once more than 'window' are in flight. */
struct WindowedLog
{
    ArchState s;
    UndoLog log;
    std::vector<UndoLog::Mark> ends; ///< end mark of every µop so far
    std::size_t retired = 0;

    void
    step(int i, std::size_t window)
    {
        log.recordReg(5, s.readReg(5));
        s.writeReg(5, i);
        log.recordPred(3, s.readPred(3));
        s.writePred(3, i % 2 != 0);
        log.recordMem(0x8000, 8, s.mem().readWord(0x8000));
        s.mem().writeWord(0x8000, static_cast<UWord>(i) * 3);
        log.recordMem(0x9001, 1, s.mem().readByte(0x9001));
        s.mem().writeByte(0x9001, static_cast<std::uint8_t>(i));
        ends.push_back(log.mark());
        while (ends.size() - retired > window)
            log.commitTo(ends[retired++]);
    }

    void
    expectStateOf(int i)
    {
        EXPECT_EQ(s.readReg(5), i);
        EXPECT_EQ(s.readPred(3), i % 2 != 0);
        EXPECT_EQ(s.mem().readWord(0x8000), static_cast<UWord>(i) * 3);
        EXPECT_EQ(s.mem().readByte(0x9001), static_cast<std::uint8_t>(i));
    }
};

TEST(UndoLogTest, MarksStayValidAcrossThousandsOfCommits)
{
    // Far more entries pass through than are ever live, so the storage
    // is reused many times over.
    WindowedLog d;
    for (int i = 0; i < 5000; ++i)
        d.step(i, 16);
    EXPECT_EQ(d.retired, 5000u - 16u);
    EXPECT_EQ(d.log.size(), 16u * 4u); // only the in-flight window

    // The oldest in-flight µop's mark was taken before the last
    // thousands of commits; rolling back to it undoes the 15 younger.
    d.log.rollbackTo(d.ends[d.retired], d.s);
    d.expectStateOf(static_cast<int>(d.retired));
    EXPECT_EQ(d.log.size(), 4u);
}

TEST(UndoLogTest, RollbackAcrossAGrowthRestoresEveryKind)
{
    // Retire a prefix so the live entries start mid-storage, then let
    // the window grow to thousands of µops, so the storage grows while
    // its live part is offset from the start.
    WindowedLog d;
    for (int i = 0; i < 100; ++i)
        d.step(i, 5);
    for (int i = 100; i < 3000; ++i)
        d.step(i, 3000);
    EXPECT_EQ(d.log.size(), (3000u - d.retired) * 4u);

    const std::size_t target = d.retired + 7; // µop 102
    d.log.rollbackTo(d.ends[target], d.s);
    d.expectStateOf(static_cast<int>(target));
    EXPECT_EQ(d.log.size(), (target + 1 - d.retired) * 4u);

    // The log keeps working after the rollback: record, commit, roll
    // back again.
    d.ends.resize(target + 1);
    for (int i = 5000; i < 5010; ++i)
        d.step(i, 3);
    d.log.rollbackTo(d.ends[d.retired], d.s);
    d.expectStateOf(5007);
    EXPECT_EQ(d.log.size(), 4u);
}

TEST(ExecutorTest, PredicatedOffIsNop)
{
    ArchState s;
    s.writePred(1, false);
    s.writeReg(2, 10);
    s.writeReg(3, 20);

    Instruction add;
    add.op = Opcode::Add;
    add.qp = 1;
    add.rd = 4;
    add.rs1 = 2;
    add.rs2 = 3;
    StepResult r = executeInst(add, 0, 10, s, nullptr);
    EXPECT_FALSE(r.qpTrue);
    EXPECT_EQ(s.readReg(4), 0);
    EXPECT_EQ(r.memSize, 0);
}

TEST(ExecutorTest, UncCompareClearsWhenNullified)
{
    ArchState s;
    s.writePred(1, false); // guard false
    s.writePred(2, true);  // stale TRUE values that must be cleared
    s.writePred(3, true);

    Instruction cmp;
    cmp.op = Opcode::CmpLt;
    cmp.qp = 1;
    cmp.pd = 2;
    cmp.pd2 = 3;
    cmp.unc = true;
    executeInst(cmp, 0, 10, s, nullptr);
    EXPECT_FALSE(s.readPred(2));
    EXPECT_FALSE(s.readPred(3));
}

TEST(ExecutorTest, NonUncComparePreservesWhenNullified)
{
    ArchState s;
    s.writePred(1, false);
    s.writePred(2, true);

    Instruction cmp;
    cmp.op = Opcode::CmpLt;
    cmp.qp = 1;
    cmp.pd = 2;
    executeInst(cmp, 0, 10, s, nullptr);
    EXPECT_TRUE(s.readPred(2));
}

TEST(ExecutorTest, CompareWritesComplement)
{
    ArchState s;
    s.writeReg(5, 3);
    s.writeReg(6, 4);
    Instruction cmp;
    cmp.op = Opcode::CmpLt;
    cmp.pd = 1;
    cmp.pd2 = 2;
    cmp.rs1 = 5;
    cmp.rs2 = 6;
    executeInst(cmp, 0, 10, s, nullptr);
    EXPECT_TRUE(s.readPred(1));
    EXPECT_FALSE(s.readPred(2));
}

TEST(ExecutorTest, DivByZeroAndOverflowDefined)
{
    ArchState s;
    s.writeReg(5, 42);
    s.writeReg(6, 0);
    Instruction div;
    div.op = Opcode::Div;
    div.rd = 7;
    div.rs1 = 5;
    div.rs2 = 6;
    executeInst(div, 0, 10, s, nullptr);
    EXPECT_EQ(s.readReg(7), 0);

    s.writeReg(5, std::numeric_limits<Word>::min());
    s.writeReg(6, -1);
    executeInst(div, 0, 10, s, nullptr);
    EXPECT_EQ(s.readReg(7), std::numeric_limits<Word>::min());

    Instruction rem;
    rem.op = Opcode::Rem;
    rem.rd = 7;
    rem.rs1 = 5;
    rem.rs2 = 6;
    executeInst(rem, 0, 10, s, nullptr);
    EXPECT_EQ(s.readReg(7), 0);
}

TEST(ExecutorTest, BranchTakenIffGuardTrue)
{
    ArchState s;
    Instruction br;
    br.op = Opcode::Br;
    br.qp = 1;
    br.target = 5;

    s.writePred(1, true);
    StepResult r = executeInst(br, 0, 10, s, nullptr);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextIndex, 5u);

    s.writePred(1, false);
    r = executeInst(br, 0, 10, s, nullptr);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.nextIndex, 1u);
}

TEST(ExecutorTest, CallWritesLinkAndRetReturns)
{
    ArchState s;
    Instruction call;
    call.op = Opcode::Call;
    call.rd = kRegRa;
    call.target = 7;
    StepResult r = executeInst(call, 3, 10, s, nullptr);
    EXPECT_EQ(r.nextIndex, 7u);
    EXPECT_EQ(s.readReg(kRegRa), static_cast<Word>(instAddr(4)));

    Instruction ret;
    ret.op = Opcode::Ret;
    ret.rs1 = kRegRa;
    r = executeInst(ret, 7, 10, s, nullptr);
    EXPECT_EQ(r.nextIndex, 4u);
    EXPECT_FALSE(r.badTarget);
}

TEST(ExecutorTest, IndirectBadTargetFlagged)
{
    ArchState s;
    s.writeReg(9, 0x3); // below the text base
    Instruction jr;
    jr.op = Opcode::JmpR;
    jr.rs1 = 9;
    StepResult r = executeInst(jr, 2, 10, s, nullptr);
    EXPECT_TRUE(r.badTarget);
    EXPECT_EQ(r.nextIndex, 3u);
}

TEST(ExecutorTest, UndoOfStoreAndLoad)
{
    ArchState s;
    UndoLog log;
    s.writeReg(2, 0x9000);
    s.writeReg(3, 77);
    s.mem().writeWord(0x9008, 55);

    Instruction st;
    st.op = Opcode::St;
    st.rs1 = 2;
    st.rs2 = 3;
    st.imm = 8;
    auto m = log.mark();
    executeInst(st, 0, 10, s, &log);
    EXPECT_EQ(s.mem().readWord(0x9008), 77u);
    log.rollbackTo(m, s);
    EXPECT_EQ(s.mem().readWord(0x9008), 55u);
}

TEST(EmulatorTest, LoopSum)
{
    // Sum 1..10 into r4.
    Program p = assemble(R"(
        li r4, 0
        li r5, 1
        loop:
        add r4, r4, r5
        addi r5, r5, 1
        cmpi.le p1, p0, r5, 10
        br p1, loop
        halt
    )");
    Emulator emu;
    EmuResult r = emu.run(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 55);
}

TEST(EmulatorTest, MemoryProgram)
{
    Program p = assemble(R"(
        .data 0x20000 5 6 7
        li r2, 0x20000
        ld r3, r2, 0
        ld r4, r2, 8
        add r4, r3, r4
        st r4, r2, 16
        halt
    )");
    Emulator emu;
    EmuResult r = emu.run(p);
    EXPECT_EQ(r.resultReg, 11);
    EXPECT_EQ(emu.state().mem().readWord(0x20010), 11u);
}

TEST(EmulatorTest, ProfileCountsBranches)
{
    Program p = assemble(R"(
        li r5, 0
        loop:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 4
        br p1, loop
        halt
    )");
    Emulator emu;
    Profile prof;
    emu.run(p, &prof);
    // The branch at index 3 executes 4 times, taken 3 of them.
    EXPECT_EQ(prof.perInst[3].execCount, 4u);
    EXPECT_EQ(prof.perInst[3].takenCount, 3u);
    EXPECT_DOUBLE_EQ(prof.takenProb(3), 0.75);
    EXPECT_DOUBLE_EQ(prof.mispredictEstimate(3), 0.25);
}

TEST(EmulatorTest, MaxStepsTerminates)
{
    Program p = assemble(R"(
        loop:
        jmp loop
        halt
    )");
    Emulator emu;
    EmuResult r = emu.run(p, nullptr, 1000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.dynInsts, 1000u);
}

TEST(EmulatorTest, ReusedEmulatorStartsOnFreshMemory)
{
    // A second run() must not see what the first program stored: every
    // run starts from reset, as a fresh emulator would.
    Program a = assemble(R"(
        li r2, 0x90000
        li r3, 42
        st r3, r2, 0
        halt
    )");
    Program b = assemble(R"(
        li r2, 0x90000
        ld r4, r2, 0
        halt
    )");
    Emulator fresh;
    const EmuResult want = fresh.run(b);
    ASSERT_TRUE(want.halted);
    EXPECT_EQ(want.resultReg, 0);

    Emulator reused;
    reused.run(a);
    const EmuResult got = reused.run(b);
    EXPECT_EQ(got.resultReg, want.resultReg);
    EXPECT_EQ(got.memFingerprint, want.memFingerprint);
}

TEST(EmulatorTest, PredFalseCounted)
{
    Program p = assemble(R"(
        pset p1, 0
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        halt
    )");
    Emulator emu;
    EmuResult r = emu.run(p);
    EXPECT_EQ(r.predFalse, 2u);
    EXPECT_EQ(r.resultReg, 0);
}

} // namespace
} // namespace wisc
