/**
 * @file
 * KernelBuilder: a structured front end over the IR.
 *
 * Workload kernels are written against this API. It lays hammocks out in
 * the contiguous, topologically ordered block order the wish converter
 * expects (head, else-side, then-side, join — exactly the layout of the
 * paper's Figure 3), and keeps track of the highest user predicate so
 * pass-generated guards never collide.
 *
 * Conventions the passes rely on (enforced here where cheap):
 *  - every conditional branch's predicate pair comes from a compare in
 *    the same block (use cmp()/cmpi() immediately before the construct);
 *  - do-while loop bodies compute the continuation predicate with a
 *    compare writing no complement;
 *  - predicates defined inside an if-arm are not read after the join.
 */

#ifndef WISC_COMPILER_BUILDER_HH_
#define WISC_COMPILER_BUILDER_HH_

#include <functional>

#include "compiler/ir.hh"

namespace wisc {

class KernelBuilder
{
  public:
    using BodyFn = std::function<void()>;

    KernelBuilder();

    // --- straight-line emission into the current block ----------------
    void emit(const Instruction &inst);

    void op3(Opcode op, RegIdx rd, RegIdx rs1, RegIdx rs2);
    void opImm(Opcode op, RegIdx rd, RegIdx rs1, Word imm);

    void add(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Add, rd, a, b); }
    void sub(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Sub, rd, a, b); }
    void and_(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::And, rd, a, b); }
    void xor_(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Xor, rd, a, b); }
    void mul(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Mul, rd, a, b); }
    void div(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Div, rd, a, b); }
    void rem(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Rem, rd, a, b); }
    void shl(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Shl, rd, a, b); }
    void shr(RegIdx rd, RegIdx a, RegIdx b) { op3(Opcode::Shr, rd, a, b); }

    void addi(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::AddI, rd, a, i); }
    void andi(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::AndI, rd, a, i); }
    void ori(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::OrI, rd, a, i); }
    void xori(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::XorI, rd, a, i); }
    void shli(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::ShlI, rd, a, i); }
    void shri(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::ShrI, rd, a, i); }
    void srai(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::SraI, rd, a, i); }
    void muli(RegIdx rd, RegIdx a, Word i) { opImm(Opcode::MulI, rd, a, i); }

    void li(RegIdx rd, Word imm);
    void mov(RegIdx rd, RegIdx rs) { addi(rd, rs, 0); }

    /** Register-register compare writing pd (and the complement to pdC;
     *  pass 0 for none). */
    void cmp(Opcode op, PredIdx pd, PredIdx pdC, RegIdx a, RegIdx b);
    /** Register-immediate compare. */
    void cmpi(Opcode op, PredIdx pd, PredIdx pdC, RegIdx a, Word imm);

    void ld(RegIdx rd, RegIdx base, Word off);
    void ld1(RegIdx rd, RegIdx base, Word off);
    void st(RegIdx val, RegIdx base, Word off);
    void st1(RegIdx val, RegIdx base, Word off);

    void pset(PredIdx pd, bool v);
    void pnot(PredIdx pd, PredIdx ps);

    /** Load the byte address of an IR block (for indirect dispatch). */
    void leaBlock(RegIdx rd, BlockId target);

    // --- structured control -------------------------------------------
    /**
     * if (cond) { then }. 'cond' and 'condC' must have just been written
     * by a compare in the current block.
     */
    void ifThen(PredIdx cond, PredIdx condC, const BodyFn &thenBody);

    /** if (cond) { then } else { else }. */
    void ifThenElse(PredIdx cond, PredIdx condC, const BodyFn &thenBody,
                    const BodyFn &elseBody);

    /**
     * do { body } while (contPred). The body must end with a compare
     * writing contPred (complement 0). Entered unconditionally.
     */
    void doWhileLoop(PredIdx contPred, const BodyFn &body);

    /**
     * while (contPred) { body }. The header computes (contPred, exitPred)
     * each iteration; the body runs while contPred holds.
     */
    void whileLoop(const BodyFn &header, PredIdx contPred,
                   PredIdx exitPred, const BodyFn &body);

    /**
     * Indirect dispatch: jump through 'reg'; 'targets' are the blocks the
     * register may hold (created eagerly; use withBlock() to fill them).
     * Execution resumes at join() once a target falls through.
     */

    // --- data and finalization ----------------------------------------
    void data(Addr base, std::vector<Word> words);

    /** Append Halt and hand over the finished function. */
    IrFunction finish();

    /** Direct access for advanced shapes the helpers do not cover. */
    IrFunction &fn() { return fn_; }

  private:
    void notePred(PredIdx p);
    IrBlock &cur() { return fn_.block(cur_); }

    IrFunction fn_;
    BlockId cur_;
    bool finished_ = false;
};

} // namespace wisc

#endif // WISC_COMPILER_BUILDER_HH_
