/**
 * @file
 * WISC execution semantics, written once and templated on how an engine
 * touches architectural state.
 *
 * Each row of WISC_OPCODES (isa/isa.hh) names an operand form and a
 * value expression. The WISC_FORM_* macros below turn a form into a
 * body, and every row becomes one always-inline function
 *
 *   template <class P> uint32_t exec<Name>(P &p, const Instruction &in,
 *                                          uint32_t pc);
 *
 * that executes an instruction whose qualifying predicate is TRUE and
 * returns the index of the next one. nullify() is the rule for a FALSE
 * qualifying predicate. The access policy P supplies:
 *
 *   Word readReg(RegIdx)              void writeReg(RegIdx, Word)
 *   bool readPred(PredIdx)            void writePred(PredIdx, bool)
 *   Word load(Addr, unsigned size)    void store(Addr, unsigned size, Word)
 *   uint32_t branch(pc, inst)         a taken Br; returns inst.target
 *   uint32_t jump(pc, inst)           Jmp and Call; returns inst.target
 *   uint32_t jumpIndirect(pc, inst, Addr)  JmpR and Ret
 *   void halt()
 *
 * writePred is never called for kPredNone. Two engines instantiate the
 * bodies: executeInst() (arch/executor.cc), which the core's
 * execute-at-fetch runs with undo recording, and threadedRun()
 * (arch/threaded.hh), which the emulator, the profiler and the
 * fast-forward warmer run with observation hooks.
 */

#ifndef WISC_ARCH_SEMANTICS_HH_
#define WISC_ARCH_SEMANTICS_HH_

#include <cstdint>

#include "arch/exec_inline.hh"
#include "arch/state.hh"
#include "isa/isa.hh"

#define WISC_ALWAYS_INLINE inline __attribute__((always_inline))

namespace wisc {

/** Plain reads and writes of an ArchState; each engine's policy derives
 *  from this and overrides what it needs to observe or record. */
struct StateAccess
{
    ArchState &state;

    Word readReg(RegIdx r) const { return state.readReg(r); }
    void writeReg(RegIdx r, Word v) { state.writeReg(r, v); }
    bool readPred(PredIdx p) const { return state.readPred(p); }
    void writePred(PredIdx p, bool v) { state.writePred(p, v); }

    Word
    load(Addr ea, unsigned size) const
    {
        return size == 8 ? static_cast<Word>(state.mem().readWord(ea))
                         : static_cast<Word>(state.mem().readByte(ea));
    }

    void
    store(Addr ea, unsigned size, Word v)
    {
        if (size == 8)
            state.mem().writeWord(ea, static_cast<UWord>(v));
        else
            state.mem().writeByte(ea, static_cast<std::uint8_t>(v));
    }
};

/** Index of the instruction at byte address 't', or kNoTarget when 't'
 *  is not an instruction of a program of 'codeSize' instructions. */
inline std::uint32_t
indirectIndex(Addr t, std::uint32_t codeSize)
{
    if (t < kTextBase || (t - kTextBase) % kInstBytes != 0 ||
        addrToIndex(t) >= codeSize)
        return kNoTarget;
    return static_cast<std::uint32_t>(addrToIndex(t));
}

template <class P>
WISC_ALWAYS_INLINE void
writePredDest(P &p, PredIdx pd, bool v)
{
    if (pd != kPredNone)
        p.writePred(pd, v);
}

/**
 * A FALSE qualifying predicate nullifies the instruction: no register,
 * predicate or memory write, and a Br falls through. The one exception
 * is IA-64's unc: a predicate writer with unc set clears both of its
 * destinations.
 */
template <class P>
WISC_ALWAYS_INLINE void
nullify(P &p, const Instruction &in)
{
    if (in.unc && in.writesPred()) {
        writePredDest(p, in.pd, false);
        writePredDest(p, in.pd2, false);
    }
}

// One body per operand form. E is the row's value expression over the
// operands the form declares.
#define WISC_FORM_RRR(E)                                                 \
    const Word a = p.readReg(in.rs1), b = p.readReg(in.rs2);             \
    p.writeReg(in.rd, (E));                                              \
    return pc + 1;
#define WISC_FORM_RRI(E)                                                 \
    const Word a = p.readReg(in.rs1), imm = in.imm;                      \
    p.writeReg(in.rd, (E));                                              \
    return pc + 1;
#define WISC_FORM_RI(E)                                                  \
    const Word imm = in.imm;                                             \
    p.writeReg(in.rd, (E));                                              \
    return pc + 1;
#define WISC_FORM_PRR(E)                                                 \
    const Word a = p.readReg(in.rs1), b = p.readReg(in.rs2);             \
    const bool cond = (E);                                               \
    writePredDest(p, in.pd, cond);                                       \
    writePredDest(p, in.pd2, !cond);                                     \
    return pc + 1;
#define WISC_FORM_PRI(E)                                                 \
    const Word a = p.readReg(in.rs1), imm = in.imm;                      \
    const bool cond = (E);                                               \
    writePredDest(p, in.pd, cond);                                       \
    writePredDest(p, in.pd2, !cond);                                     \
    return pc + 1;
#define WISC_FORM_PI(E)                                                  \
    const Word imm = in.imm;                                             \
    writePredDest(p, in.pd, (E));                                        \
    return pc + 1;
#define WISC_FORM_PP(E)                                                  \
    const bool ps = p.readPred(in.ps);                                   \
    writePredDest(p, in.pd, (E));                                        \
    return pc + 1;
#define WISC_FORM_PPP(E)                                                 \
    const bool ps = p.readPred(in.ps), ps2 = p.readPred(in.ps2);         \
    writePredDest(p, in.pd, (E));                                        \
    return pc + 1;
#define WISC_FORM_Ld(E)                                                  \
    const Addr ea = static_cast<Addr>(wrapAdd(p.readReg(in.rs1), in.imm)); \
    p.writeReg(in.rd, p.load(ea, (E)));                                  \
    return pc + 1;
#define WISC_FORM_St(E)                                                  \
    const Addr ea = static_cast<Addr>(wrapAdd(p.readReg(in.rs1), in.imm)); \
    p.store(ea, (E), p.readReg(in.rs2));                                 \
    return pc + 1;
#define WISC_FORM_Br(E) return p.branch(pc, in);
#define WISC_FORM_Jmp(E) return p.jump(pc, in);
#define WISC_FORM_Call(E)                                                \
    p.writeReg(in.rd, static_cast<Word>(instAddr(pc + 1)));              \
    return p.jump(pc, in);
#define WISC_FORM_JmpR(E)                                                \
    return p.jumpIndirect(pc, in, static_cast<Addr>(p.readReg(in.rs1)));
#define WISC_FORM_Nop(E) return pc + 1;
#define WISC_FORM_Halt(E)                                                \
    p.halt();                                                            \
    return pc;

#define WISC_DEFINE_EXEC(Name, Mnem, Form, Cls, E)                       \
    template <class P>                                                   \
    WISC_ALWAYS_INLINE std::uint32_t exec##Name(                         \
        [[maybe_unused]] P &p, [[maybe_unused]] const Instruction &in,  \
        std::uint32_t pc)                                                \
    {                                                                    \
        WISC_FORM_##Form(E)                                              \
    }
WISC_OPCODES(WISC_DEFINE_EXEC)
#undef WISC_DEFINE_EXEC

} // namespace wisc

#endif // WISC_ARCH_SEMANTICS_HH_
