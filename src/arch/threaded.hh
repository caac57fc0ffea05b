/**
 * @file
 * Threaded-code functional execution engine: what the emulator, the
 * compiler's profiler and the sampled-simulation fast forward run.
 *
 * A computed-goto dispatch loop jumps through a per-PC handler table
 * built once from the program's static image (the same predecode idea
 * the timing core uses): each handler finishes by jumping straight to
 * the next instruction's handler, so the hot path is one indirect
 * branch per µop, with no result struct and no per-step call. The label
 * table and the handlers are generated from WISC_OPCODES, and each
 * handler is the opcode's body from arch/semantics.hh, the same one
 * executeInst() runs for the core.
 *
 * The Hooks template parameter is how the sampled-simulation fast
 * forward observes the instruction stream (branch outcomes, control
 * transfers, data addresses) without the plain emulator paying for
 * observation it does not want: with NullExecHooks every hook call
 * inlines to nothing.
 */

#ifndef WISC_ARCH_THREADED_HH_
#define WISC_ARCH_THREADED_HH_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "arch/semantics.hh"
#include "arch/state.hh"
#include "common/log.hh"
#include "isa/isa.hh"
#include "isa/program.hh"

namespace wisc {

/** Outcome of one threadedRun() leg. */
struct ThreadedResult
{
    std::uint64_t steps = 0;     ///< instructions executed (incl. Halt)
    std::uint64_t predFalse = 0; ///< instructions nullified by FALSE qp
    std::uint32_t nextPc = 0;    ///< resume index (the Halt's own index
                                 ///< when halted)
    bool halted = false;         ///< a Halt with TRUE qp executed
};

/** Do-nothing observation hooks; every call compiles away. */
struct NullExecHooks
{
    void onInst(std::uint32_t, const Instruction &, bool) {}
    void onBranch(std::uint32_t, const Instruction &, bool) {}
    void onCtrl(std::uint32_t, const Instruction &, std::uint32_t) {}
    void onMem(Addr, unsigned, bool) {}
};

/** threadedRun()'s access policy: plain state access plus the hooks. */
template <class Hooks>
struct HookedAccess : StateAccess
{
    Hooks &hooks;
    std::uint32_t codeSize;

    Word
    load(Addr ea, unsigned size)
    {
        hooks.onMem(ea, size, false);
        return StateAccess::load(ea, size);
    }

    void
    store(Addr ea, unsigned size, Word v)
    {
        hooks.onMem(ea, size, true);
        StateAccess::store(ea, size, v);
    }

    std::uint32_t
    branch(std::uint32_t pc, const Instruction &in)
    {
        hooks.onBranch(pc, in, true);
        return in.target;
    }

    std::uint32_t
    jump(std::uint32_t pc, const Instruction &in)
    {
        hooks.onCtrl(pc, in, in.target);
        return in.target;
    }

    std::uint32_t
    jumpIndirect(std::uint32_t pc, const Instruction &in, Addr t)
    {
        // The architectural path never decodes a bad indirect target;
        // only the core's speculative wrong paths can.
        const std::uint32_t idx = indirectIndex(t, codeSize);
        wisc_assert(idx != kNoTarget,
                    "indirect branch to bad target at instruction ", +pc);
        hooks.onCtrl(pc, in, idx);
        return idx;
    }

    void halt() {}
};

/**
 * Execute up to 'maxSteps' instructions of 'prog' against 'state',
 * starting at instruction index 'startPc'. Stops early when a Halt
 * with a TRUE qualifying predicate executes. Resumable: feed the
 * returned nextPc back in to continue exactly where the leg stopped.
 *
 * Hook contract (all per *executed* instruction, i.e. on the
 * architectural path):
 *   onInst(pc, inst, qpTrue)      every instruction;
 *   onBranch(pc, inst, taken)     every Br, taken == qpTrue (a FALSE
 *                                 qp is how WISC encodes not-taken);
 *   onCtrl(pc, inst, nextPc)      every taken Jmp/Call/JmpR/Ret;
 *   onMem(ea, size, isStore)      every non-nullified Ld/St/Ld1/St1.
 *
 * Cache-line aligned so the dispatch loop's speed does not depend on
 * where the linker happens to place it: a 16-byte shift caused by
 * unrelated code elsewhere in a binary slowed reference emulation by
 * about 10%.
 */
template <class Hooks>
[[gnu::aligned(64)]] ThreadedResult
threadedRun(const Program &prog, ArchState &state, std::uint32_t startPc,
            std::uint64_t maxSteps, Hooks &&hooks)
{
    const Instruction *const code = prog.codeData();
    const std::uint32_t codeSize = static_cast<std::uint32_t>(prog.size());
    if (maxSteps == 0)
        return {0, 0, startPc, false};

    std::uint64_t left = maxSteps; // budget not yet spent
    std::uint64_t predFalse = 0;
    bool halted = false;
    HookedAccess<std::remove_reference_t<Hooks>> p{{state}, hooks,
                                                   codeSize};

    static const void *const kOp[] = {
#define WISC_THREADED_LABEL(Name, ...) &&op_##Name,
        WISC_OPCODES(WISC_THREADED_LABEL)
#undef WISC_THREADED_LABEL
    };

    // Per-PC predecoded handler table: dispatching loads the handler
    // address straight from the instruction index, skipping the
    // opcode-table indirection on every step.
    std::vector<const void *> tbl(codeSize);
    for (std::uint32_t i = 0; i < codeSize; ++i)
        tbl[i] = kOp[static_cast<unsigned>(code[i].op)];

    // The loop's cursor is the instruction pointer itself, and pc is
    // derived from it: a separate pc variable ends up in memory, which
    // puts a store-to-load round trip on every step's critical path.
    const Instruction *inst = code + startPc;
#define WISC_THREADED_PC static_cast<std::uint32_t>(inst - code)

    // Budget check *before* executing: a zero budget runs nothing, and a
    // leg never overshoots by even one instruction.
#define WISC_THREADED_DISPATCH()                                          \
    do {                                                                  \
        if (left == 0)                                                    \
            goto out;                                                     \
        wisc_assert(inst < code + codeSize, "pc ", WISC_THREADED_PC,      \
                    " escaped the program (codeSize ", codeSize, ")");    \
        --left;                                                           \
        if (!state.readPred(inst->qp))                                    \
            goto qp_false;                                                \
        hooks.onInst(WISC_THREADED_PC, *inst, true);                      \
        goto *tbl[inst - code];                                           \
    } while (0)

    WISC_THREADED_DISPATCH();

qp_false:
    ++predFalse;
    hooks.onInst(WISC_THREADED_PC, *inst, false);
    nullify(p, *inst);
    if (inst->op == Opcode::Br)
        hooks.onBranch(WISC_THREADED_PC, *inst, false);
    ++inst;
    WISC_THREADED_DISPATCH();

#define WISC_THREADED_HANDLER(Name, ...)                                  \
    op_##Name:                                                            \
    inst = code + exec##Name(p, *inst, WISC_THREADED_PC);                 \
    if constexpr (Opcode::Name == Opcode::Halt) {                         \
        halted = true;                                                    \
        goto out; /* inst stays on the Halt */                            \
    }                                                                     \
    WISC_THREADED_DISPATCH();
    WISC_OPCODES(WISC_THREADED_HANDLER)
#undef WISC_THREADED_HANDLER
#undef WISC_THREADED_DISPATCH

out:
    return {maxSteps - left, predFalse, WISC_THREADED_PC, halted};
#undef WISC_THREADED_PC
}

} // namespace wisc

#endif // WISC_ARCH_THREADED_HH_
