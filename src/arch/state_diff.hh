/**
 * @file
 * Word-level architectural-state comparison.
 *
 * The equivalence invariant ("every binary variant of a kernel produces
 * the same architectural result") is only actionable when a violation
 * names the first state word that differs — a register index or a
 * memory address, with the expected and observed values. This module
 * provides that triage primitive for verifyVariantEquivalence and for
 * the differential fuzzer.
 *
 * Predicate registers are deliberately excluded: if-conversion rewrites
 * arm compares into unconditional compares (which clear their targets
 * on a FALSE guard where the branchy binary never executes them), and
 * the passes allocate scratch guards, so predicate state legitimately
 * differs between variants. Integer registers and memory must match
 * exactly.
 */

#ifndef WISC_ARCH_STATE_DIFF_HH_
#define WISC_ARCH_STATE_DIFF_HH_

#include <string>

#include "arch/state.hh"

namespace wisc {

/** The first differing state word between two ArchStates. */
struct StateDiff
{
    enum class Kind : std::uint8_t
    {
        None,   ///< states agree
        IntReg, ///< integer register 'reg' differs
        Memory, ///< 64-bit word at 'addr' differs
    };

    Kind kind = Kind::None;
    unsigned reg = 0;  ///< differing register index (Kind::IntReg)
    Addr addr = 0;     ///< differing word address (Kind::Memory)
    UWord expected = 0;
    UWord got = 0;

    explicit operator bool() const { return kind != Kind::None; }

    /** "r7: expected 42 got 41" / "mem[0x20010]: expected ... got ..." */
    std::string describe() const;
};

/**
 * Find the first difference between two architectural states, scanning
 * integer registers in index order, then memory in address order over
 * the union of both states' touched pages. 'expected' is the reference
 * (normal-variant) state.
 */
StateDiff firstStateDiff(const ArchState &expected, const ArchState &got);

} // namespace wisc

#endif // WISC_ARCH_STATE_DIFF_HH_
