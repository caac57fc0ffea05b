/**
 * @file
 * Single-instruction functional executor with optional undo recording.
 *
 * The timing core's execute-at-fetch: the undo-recording instantiation
 * of the opcode bodies in arch/semantics.hh, whose other instantiation
 * (arch/threaded.hh) the emulator runs. An instruction whose qualifying
 * predicate evaluates FALSE performs no architectural writes (it
 * behaves as a NOP, except that an unc compare clears its destinations),
 * and a branch whose qp is FALSE falls through.
 */

#ifndef WISC_ARCH_EXECUTOR_HH_
#define WISC_ARCH_EXECUTOR_HH_

#include "arch/state.hh"
#include "isa/isa.hh"

namespace wisc {

/** Outcome of executing one instruction. */
struct StepResult
{
    bool qpTrue = true;      ///< value of the qualifying predicate
    bool taken = false;      ///< control transfer taken (Br/Jmp/Call/...)
    std::uint32_t nextIndex = 0; ///< index of the next instruction
    bool halted = false;     ///< a Halt with TRUE qp executed
    bool badTarget = false;  ///< indirect target decoded out of range
    Addr memAddr = 0;        ///< effective address (valid iff memSize != 0)
    std::uint8_t memSize = 0;///< 0 = no access, else 1 or 8 bytes
};

/**
 * Execute the instruction at 'index' against 'state'.
 *
 * @param inst    the instruction to execute
 * @param index   its instruction index (for fall-through / link values)
 * @param codeSize size of the owning program (for indirect-target checks)
 * @param state   architectural state to read and mutate
 * @param undo    if non-null, old values are recorded for rollback
 */
StepResult executeInst(const Instruction &inst, std::uint32_t index,
                       std::uint32_t codeSize, ArchState &state,
                       UndoLog *undo);

} // namespace wisc

#endif // WISC_ARCH_EXECUTOR_HH_
