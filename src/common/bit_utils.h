/**
 * @file
 * Small bit-manipulation helpers used by masks and flag encodings.
 */
#ifndef RFV_COMMON_BIT_UTILS_H
#define RFV_COMMON_BIT_UTILS_H

#include <bit>

#include "common/types.h"

namespace rfv {

/** Number of set bits in a 64-bit word. */
inline u32
popcount64(u64 x)
{
    return static_cast<u32>(std::popcount(x));
}

/** Mask with the low @p n bits set (n <= 64). */
inline u64
lowMask(u32 n)
{
    return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

/** Extract the bit field [lo, lo+width) of @p x. */
inline u64
bits(u64 x, u32 lo, u32 width)
{
    return (x >> lo) & lowMask(width);
}

/** Insert @p value into the bit field [lo, lo+width) of @p x. */
inline u64
insertBits(u64 x, u32 lo, u32 width, u64 value)
{
    const u64 mask = lowMask(width) << lo;
    return (x & ~mask) | ((value << lo) & mask);
}

/** Index of the lowest set bit; 64 when x == 0. */
inline u32
findFirstSet(u64 x)
{
    return static_cast<u32>(std::countr_zero(x));
}

/** Ceiling division for unsigned integers. */
inline u64
ceilDiv(u64 num, u64 den)
{
    return (num + den - 1) / den;
}

/** True when @p x is a nonzero power of two. */
inline bool
isPow2(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace rfv

#endif // RFV_COMMON_BIT_UTILS_H
