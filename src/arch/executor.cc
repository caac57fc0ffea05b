#include "arch/executor.hh"

#include "arch/semantics.hh"
#include "common/log.hh"

namespace wisc {

namespace {

/** The core's access policy: every old value goes to the undo log (when
 *  one is given), and the step's side effects land in its StepResult. */
struct UndoAccess : StateAccess
{
    UndoLog *undo;
    StepResult &res;
    std::uint32_t codeSize;

    void
    writeReg(RegIdx r, Word v)
    {
        if (undo && r != kRegZero)
            undo->recordReg(r, state.readReg(r));
        state.writeReg(r, v);
    }

    void
    writePred(PredIdx p, bool v)
    {
        if (undo)
            undo->recordPred(p, state.readPred(p));
        state.writePred(p, v);
    }

    Word
    load(Addr ea, unsigned size)
    {
        res.memAddr = ea;
        res.memSize = static_cast<std::uint8_t>(size);
        return StateAccess::load(ea, size);
    }

    void
    store(Addr ea, unsigned size, Word v)
    {
        res.memAddr = ea;
        res.memSize = static_cast<std::uint8_t>(size);
        if (undo)
            undo->recordMem(ea, res.memSize,
                            static_cast<UWord>(StateAccess::load(ea, size)));
        StateAccess::store(ea, size, v);
    }

    std::uint32_t
    branch(std::uint32_t, const Instruction &in)
    {
        res.taken = true;
        return in.target;
    }

    std::uint32_t
    jump(std::uint32_t, const Instruction &in)
    {
        res.taken = true;
        return in.target;
    }

    std::uint32_t
    jumpIndirect(std::uint32_t pc, const Instruction &, Addr t)
    {
        res.taken = true;
        const std::uint32_t idx = indirectIndex(t, codeSize);
        if (idx != kNoTarget)
            return idx;
        // Only reachable on a speculative wrong path: the caller decides
        // how to contain it (typically by fetching a NOP stream until
        // the flush arrives).
        res.badTarget = true;
        return pc + 1;
    }

    void halt() { res.halted = true; }
};

} // namespace

StepResult
executeInst(const Instruction &inst, std::uint32_t index,
            std::uint32_t codeSize, ArchState &state, UndoLog *undo)
{
    StepResult res;
    UndoAccess p{{state}, undo, res, codeSize};
    res.qpTrue = state.readPred(inst.qp);
    if (!res.qpTrue) {
        nullify(p, inst);
        res.nextIndex = index + 1;
        return res;
    }

    switch (inst.op) {
#define WISC_EXEC_CASE(Name, ...)                                        \
      case Opcode::Name:                                                 \
        res.nextIndex = exec##Name(p, inst, index);                      \
        break;
        WISC_OPCODES(WISC_EXEC_CASE)
#undef WISC_EXEC_CASE
      case Opcode::NumOpcodes:
        wisc_panic("executed NumOpcodes sentinel");
    }
    return res;
}

} // namespace wisc
