/**
 * @file
 * Golden semantic tests for every WISC ALU/compare opcode, randomized
 * cross-checks of wrapping arithmetic against host-side reference
 * computations, and a per-opcode differential between the two
 * instantiations of arch/semantics.hh (executeInst and threadedRun),
 * including undo rollback.
 */

#include <gtest/gtest.h>

#include "arch/executor.hh"
#include "arch/state_diff.hh"
#include "arch/threaded.hh"
#include "common/rng.hh"

namespace wisc {
namespace {

Word
runOp(Opcode op, Word a, Word b, Word imm = 0)
{
    ArchState s;
    s.writeReg(6, a);
    s.writeReg(7, b);
    Instruction i;
    i.op = op;
    i.rd = 5;
    i.rs1 = 6;
    i.rs2 = 7;
    i.imm = imm;
    executeInst(i, 0, 4, s, nullptr);
    return s.readReg(5);
}

bool
runCmp(Opcode op, Word a, Word b, Word imm = 0)
{
    ArchState s;
    s.writeReg(6, a);
    s.writeReg(7, b);
    Instruction i;
    i.op = op;
    i.pd = 1;
    i.pd2 = 2;
    i.rs1 = 6;
    i.rs2 = 7;
    i.imm = imm;
    executeInst(i, 0, 4, s, nullptr);
    // The complement must always be the inverse.
    EXPECT_NE(s.readPred(1), s.readPred(2));
    return s.readPred(1);
}

TEST(ExecutorSemantics, AluGoldenValues)
{
    EXPECT_EQ(runOp(Opcode::Add, 3, 4), 7);
    EXPECT_EQ(runOp(Opcode::Sub, 3, 4), -1);
    EXPECT_EQ(runOp(Opcode::And, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(runOp(Opcode::Or, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(runOp(Opcode::Xor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(runOp(Opcode::Shl, 3, 4), 48);
    EXPECT_EQ(runOp(Opcode::Shr, -1, 60), 15) << "logical shift";
    EXPECT_EQ(runOp(Opcode::Sra, -16, 2), -4) << "arithmetic shift";
    EXPECT_EQ(runOp(Opcode::Mul, -3, 5), -15);
    EXPECT_EQ(runOp(Opcode::Div, 17, 5), 3);
    EXPECT_EQ(runOp(Opcode::Div, -17, 5), -3) << "C truncation";
    EXPECT_EQ(runOp(Opcode::Rem, 17, 5), 2);
    EXPECT_EQ(runOp(Opcode::Rem, -17, 5), -2);
}

TEST(ExecutorSemantics, ImmediateGoldenValues)
{
    EXPECT_EQ(runOp(Opcode::AddI, 3, 0, 4), 7);
    EXPECT_EQ(runOp(Opcode::AndI, 0b1100, 0, 0b1010), 0b1000);
    EXPECT_EQ(runOp(Opcode::OrI, 0b1100, 0, 0b1010), 0b1110);
    EXPECT_EQ(runOp(Opcode::XorI, 0b1100, 0, 0b1010), 0b0110);
    EXPECT_EQ(runOp(Opcode::ShlI, 3, 0, 4), 48);
    EXPECT_EQ(runOp(Opcode::ShrI, -1, 0, 60), 15);
    EXPECT_EQ(runOp(Opcode::SraI, -16, 0, 2), -4);
    EXPECT_EQ(runOp(Opcode::MulI, -3, 0, 5), -15);
}

TEST(ExecutorSemantics, ShiftAmountsMaskTo6Bits)
{
    EXPECT_EQ(runOp(Opcode::Shl, 1, 64), 1) << "shift by 64 wraps to 0";
    EXPECT_EQ(runOp(Opcode::Shl, 1, 65), 2);
    EXPECT_EQ(runOp(Opcode::ShrI, 8, 0, 67), 1);
}

TEST(ExecutorSemantics, WrappingAddMatchesUnsignedHost)
{
    Rng rng(44);
    for (int i = 0; i < 200; ++i) {
        Word a = static_cast<Word>(rng.next());
        Word b = static_cast<Word>(rng.next());
        Word expect = static_cast<Word>(static_cast<UWord>(a) +
                                        static_cast<UWord>(b));
        EXPECT_EQ(runOp(Opcode::Add, a, b), expect);
        Word expectMul = static_cast<Word>(static_cast<UWord>(a) *
                                           static_cast<UWord>(b));
        EXPECT_EQ(runOp(Opcode::Mul, a, b), expectMul);
    }
}

TEST(ExecutorSemantics, CompareGoldenValues)
{
    EXPECT_TRUE(runCmp(Opcode::CmpEq, 5, 5));
    EXPECT_FALSE(runCmp(Opcode::CmpEq, 5, 6));
    EXPECT_TRUE(runCmp(Opcode::CmpNe, 5, 6));
    EXPECT_TRUE(runCmp(Opcode::CmpLt, -1, 0));
    EXPECT_FALSE(runCmp(Opcode::CmpLtU, -1, 0)) << "-1 is huge unsigned";
    EXPECT_TRUE(runCmp(Opcode::CmpGeU, -1, 0));
    EXPECT_TRUE(runCmp(Opcode::CmpLe, 5, 5));
    EXPECT_FALSE(runCmp(Opcode::CmpGt, 5, 5));
    EXPECT_TRUE(runCmp(Opcode::CmpGe, 5, 5));
}

TEST(ExecutorSemantics, CompareImmediateGoldenValues)
{
    EXPECT_TRUE(runCmp(Opcode::CmpEqI, 5, 0, 5));
    EXPECT_TRUE(runCmp(Opcode::CmpNeI, 5, 0, 6));
    EXPECT_TRUE(runCmp(Opcode::CmpLtI, -10, 0, -9));
    EXPECT_TRUE(runCmp(Opcode::CmpLeI, 7, 0, 7));
    EXPECT_FALSE(runCmp(Opcode::CmpGtI, 7, 0, 7));
    EXPECT_TRUE(runCmp(Opcode::CmpGeI, 7, 0, 7));
}

TEST(ExecutorSemantics, PredicateOps)
{
    ArchState s;
    s.writePred(3, true);
    s.writePred(4, false);

    Instruction pnot;
    pnot.op = Opcode::PNot;
    pnot.pd = 5;
    pnot.ps = 3;
    executeInst(pnot, 0, 4, s, nullptr);
    EXPECT_FALSE(s.readPred(5));

    Instruction pand;
    pand.op = Opcode::PAnd;
    pand.pd = 5;
    pand.ps = 3;
    pand.ps2 = 4;
    executeInst(pand, 0, 4, s, nullptr);
    EXPECT_FALSE(s.readPred(5));

    Instruction por;
    por.op = Opcode::POr;
    por.pd = 5;
    por.ps = 3;
    por.ps2 = 4;
    executeInst(por, 0, 4, s, nullptr);
    EXPECT_TRUE(s.readPred(5));

    Instruction pset;
    pset.op = Opcode::PSet;
    pset.pd = 5;
    pset.imm = 0;
    executeInst(pset, 0, 4, s, nullptr);
    EXPECT_FALSE(s.readPred(5));
}

TEST(ExecutorSemantics, ByteMemoryOps)
{
    ArchState s;
    s.writeReg(6, 0x50000);
    s.writeReg(7, 0x1FF); // only the low byte must be stored

    Instruction st1;
    st1.op = Opcode::St1;
    st1.rs1 = 6;
    st1.rs2 = 7;
    st1.imm = 3;
    executeInst(st1, 0, 4, s, nullptr);
    EXPECT_EQ(s.mem().readByte(0x50003), 0xFF);

    Instruction ld1;
    ld1.op = Opcode::Ld1;
    ld1.rd = 8;
    ld1.rs1 = 6;
    ld1.imm = 3;
    executeInst(ld1, 0, 4, s, nullptr);
    EXPECT_EQ(s.readReg(8), 0xFF) << "zero-extended";
}

TEST(ExecutorSemantics, WordMemoryRoundTripRandom)
{
    Rng rng(91);
    ArchState s;
    s.writeReg(6, 0x60000);
    for (int i = 0; i < 100; ++i) {
        Word v = static_cast<Word>(rng.next());
        Word off = static_cast<Word>(8 * rng.below(64));
        s.writeReg(7, v);

        Instruction st;
        st.op = Opcode::St;
        st.rs1 = 6;
        st.rs2 = 7;
        st.imm = off;
        executeInst(st, 0, 4, s, nullptr);

        Instruction ld;
        ld.op = Opcode::Ld;
        ld.rd = 8;
        ld.rs1 = 6;
        ld.imm = off;
        executeInst(ld, 0, 4, s, nullptr);
        EXPECT_EQ(s.readReg(8), v);
    }
}

TEST(ExecutorSemantics, EffectiveAddressReported)
{
    ArchState s;
    s.writeReg(6, 0x1000);
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 8;
    ld.rs1 = 6;
    ld.imm = -16;
    StepResult r = executeInst(ld, 0, 4, s, nullptr);
    EXPECT_EQ(r.memAddr, 0xFF0u);
    EXPECT_EQ(r.memSize, 8);
}

// ------------------------------------------- per-opcode engine differential

/** Deterministic random state for 'inst': every register and
 *  predicate, the memory word a memory op reaches through r6 + 8, and
 *  a valid target in r6 for a register-indirect jump. */
void
seedState(ArchState &s, const Instruction &inst, std::uint64_t seed, bool qp)
{
    Rng rng(seed);
    s.reset();
    for (unsigned r = 1; r < kNumIntRegs; ++r)
        s.writeReg(static_cast<RegIdx>(r), static_cast<Word>(rng.next()));
    for (unsigned p = 1; p < kNumPredRegs; ++p)
        s.writePred(static_cast<PredIdx>(p), rng.below(2) != 0);
    s.writePred(inst.qp, qp);
    const Addr base = 0x40000 + rng.below(4096);
    s.writeReg(6, static_cast<Word>(inst.isIndirect() ? instAddr(2) : base));
    s.mem().writeWord(base + 8, rng.next());
}

void
expectSamePreds(const ArchState &want, const ArchState &got)
{
    for (unsigned p = 0; p < kNumPredRegs; ++p)
        EXPECT_EQ(want.readPred(static_cast<PredIdx>(p)),
                  got.readPred(static_cast<PredIdx>(p)))
            << "p" << p;
}

/** Records the threaded engine's memory observations. */
struct MemHooks : NullExecHooks
{
    Addr ea = 0;
    unsigned size = 0;
    void onMem(Addr a, unsigned n, bool) { ea = a, size = n; }
};

TEST(ExecutorSemantics, EveryOpcodeSameOnBothEnginesAndRollsBack)
{
    for (unsigned o = 0; o < static_cast<unsigned>(Opcode::NumOpcodes); ++o) {
        const Opcode op = static_cast<Opcode>(o);
        struct Case { bool qp, unc; };
        for (Case c : {Case{true, false}, Case{false, false},
                       Case{false, true}}) {
            Instruction inst;
            inst.op = op;
            if (c.unc && !inst.writesPred())
                continue;
            SCOPED_TRACE(::testing::Message()
                         << opcodeName(op) << " qp=" << c.qp
                         << " unc=" << c.unc);
            const std::uint64_t seed = 1000 + o;
            inst.qp = 1;
            inst.unc = c.unc;
            inst.rd = 5;
            inst.rs1 = 6;
            inst.rs2 = 7;
            inst.pd = 2;
            inst.pd2 = 3;
            inst.ps = 4;
            inst.ps2 = 5;
            inst.imm = inst.isMem() ? 8 : Rng(seed).range(-70, 70);
            inst.target = 2; // taken control skips the first Halt

            // The instruction, then two Halts: a taken control transfer
            // (register-indirect ones too, see seedState) stops on the
            // second, a fall-through on the first.
            Program prog;
            prog.append(inst);
            Instruction halt;
            halt.op = Opcode::Halt;
            prog.append(halt);
            prog.append(halt);

            ArchState viaCore;
            seedState(viaCore, inst, seed, c.qp);
            UndoLog log;
            const UndoLog::Mark m = log.mark();
            const StepResult r = executeInst(inst, 0, 3, viaCore, &log);

            ArchState viaThreaded;
            seedState(viaThreaded, inst, seed, c.qp);
            MemHooks hooks;
            const ThreadedResult t = threadedRun(prog, viaThreaded, 0, 2,
                                                 hooks);

            EXPECT_FALSE(firstStateDiff(viaCore, viaThreaded));
            expectSamePreds(viaCore, viaThreaded);
            EXPECT_EQ(r.qpTrue, c.qp);
            EXPECT_EQ(t.predFalse, c.qp ? 0u : 1u);
            EXPECT_TRUE(t.halted);
            EXPECT_EQ(t.steps, r.halted ? 1u : 2u);
            EXPECT_EQ(t.nextPc, r.nextIndex);
            EXPECT_EQ(hooks.size, r.memSize);
            EXPECT_EQ(hooks.ea, r.memSize ? r.memAddr : 0);

            log.rollbackTo(m, viaCore);
            ArchState pre;
            seedState(pre, inst, seed, c.qp);
            EXPECT_FALSE(firstStateDiff(pre, viaCore));
            expectSamePreds(pre, viaCore);
        }
    }
}

} // namespace
} // namespace wisc
