/**
 * @file
 * The arithmetic of WISC's value expressions: the functions the opcode
 * list in isa/isa.hh names (wrapAdd, safeDiv, shiftLeft, ...). Every
 * edge case — signed overflow, division by zero, shift amounts of 64
 * or more — is decided here, once, for both execution engines that
 * arch/semantics.hh instantiates.
 */

#ifndef WISC_ARCH_EXEC_INLINE_HH_
#define WISC_ARCH_EXEC_INLINE_HH_

#include <limits>

#include "common/types.hh"

namespace wisc {

/** Two's-complement wrapping arithmetic without signed-overflow UB. */
inline Word
wrapAdd(Word a, Word b)
{
    return static_cast<Word>(static_cast<UWord>(a) + static_cast<UWord>(b));
}

inline Word
wrapSub(Word a, Word b)
{
    return static_cast<Word>(static_cast<UWord>(a) - static_cast<UWord>(b));
}

inline Word
wrapMul(Word a, Word b)
{
    return static_cast<Word>(static_cast<UWord>(a) * static_cast<UWord>(b));
}

/** Division: by-zero yields 0, overflow (MIN / -1) yields MIN. */
inline Word
safeDiv(Word a, Word b)
{
    if (b == 0)
        return 0;
    if (a == std::numeric_limits<Word>::min() && b == -1)
        return a;
    return a / b;
}

inline Word
safeRem(Word a, Word b)
{
    if (b == 0)
        return a;
    if (a == std::numeric_limits<Word>::min() && b == -1)
        return 0;
    return a % b;
}

/** Shifts use the low six bits of the amount; shiftRight is logical. */
inline Word
shiftLeft(Word a, Word b)
{
    return static_cast<Word>(static_cast<UWord>(a) << (b & 63));
}

inline Word
shiftRight(Word a, Word b)
{
    return static_cast<Word>(static_cast<UWord>(a) >> (b & 63));
}

inline Word
shiftRightArith(Word a, Word b)
{
    return a >> (b & 63);
}

} // namespace wisc

#endif // WISC_ARCH_EXEC_INLINE_HH_
