/**
 * @file
 * Small bit-manipulation helpers used by predictors and caches.
 */

#ifndef WISC_COMMON_BITUTIL_HH_
#define WISC_COMMON_BITUTIL_HH_

#include <bit>
#include <cstdint>

namespace wisc {

/** True iff x is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2i(std::uint64_t x)
{
    return static_cast<unsigned>(std::bit_width(x) - 1);
}

/** Mask with the low n bits set (n <= 64). */
constexpr std::uint64_t
maskBits(unsigned n)
{
    return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

/** Extract bits [lo, lo+len) of x. */
constexpr std::uint64_t
bits(std::uint64_t x, unsigned lo, unsigned len)
{
    return (x >> lo) & maskBits(len);
}

/** Saturating increment of an n-bit counter. */
inline void
satIncrement(std::uint8_t &ctr, unsigned nbits)
{
    if (ctr < maskBits(nbits))
        ++ctr;
}

/** Saturating decrement. */
inline void
satDecrement(std::uint8_t &ctr)
{
    if (ctr > 0)
        --ctr;
}

/** 2-bit saturating counter update. */
inline void
train2bit(std::uint8_t &ctr, bool taken)
{
    if (taken)
        satIncrement(ctr, 2);
    else
        satDecrement(ctr);
}

} // namespace wisc

#endif // WISC_COMMON_BITUTIL_HH_
