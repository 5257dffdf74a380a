/* The one 64 x 64 -> 128-bit product of the compiled library, shared by
 * _kernel.c (PCG64's 128-bit LCG) and _repr.c (the float text's products).
 * It is one instruction where the compiler has unsigned __int128 and four
 * 32 x 32 -> 64-bit products where it has not; _kernel.py hashes this file
 * into the library's cache key with the sources.
 */

#ifndef UM_UMUL128_H
#define UM_UMUL128_H

#include <stdint.h>

/* a * b as {low, *high} */
static inline uint64_t umul128(uint64_t a, uint64_t b, uint64_t *high)
{
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *high = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    const uint64_t middle = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *high = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32);
    return middle << 32 | (uint32_t)p00;
#endif
}

#endif
