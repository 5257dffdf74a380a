/* Python's repr of a double, in bulk: the artifact writer's float text.
 *
 * um_repr writes float.__repr__'s exact text for each of n doubles,
 * separated by one ',' byte.  The digits are the shortest that read back
 * to the same double, the nearest to it when several are that short, an
 * exact tie going to the even one: the Ryu algorithm (Ulf Adams, "Ryu:
 * fast float-to-string conversion", PLDI 2018), which gives the digits of
 * CPython's dtoa in mode 0.  The layout is CPython's 'r' format with
 * Py_DTSF_ADD_DOT_0 (Python/pystrtod.c): exponent form when the decimal
 * point lies more than 16 places right or 4 places left of the first
 * digit, a signed exponent of at least two digits, and ".0" after an
 * integral value; "inf", "-inf" and "nan" for every NaN.
 *
 * Ryu multiplies the binary significand by a 125-bit approximation of
 * 5^i or 5^-q.  The two tables of them are built exactly from big
 * integers once, when the library is loaded.  Only 64-bit integer
 * arithmetic is used; umul128 is the one 64x64 -> 128-bit product.
 */

#include <stdint.h>
#include <string.h>

/* "-2.2250738585072014e-308" is the longest text; one byte more for ',' */
enum { REPR_MAX = 24, REPR_STRIDE = REPR_MAX + 1 };

#define MANTISSA_BITS 52
#define EXPONENT_BIAS 1023
#define POW5_BITS 125
/* a double needs 5^i for i <= 325 and 5^-q for q <= 290 */
#define POW5_COUNT 326
#define POW5_INV_COUNT 291
/* 64-bit limbs, enough for 2 * 5^325 (756 bits) */
#define LIMBS 12

/* {low, high}: 5^i >> (bits(5^i) - 125), and 2^(bits(5^q) - 1 + 125) / 5^q + 1 */
static uint64_t POW5[POW5_COUNT][2];
static uint64_t POW5_INV[POW5_INV_COUNT][2];

/* floor(log10(2^e)) and floor(log10(5^e)) for 0 <= e <= 1650; ceil(log2(5^e)) or 1 */
static int log10_pow2(int e) { return (int)(((uint32_t)e * 78913) >> 18); }
static int log10_pow5(int e) { return (int)(((uint32_t)e * 732923) >> 20); }
static int pow5_bits(int e) { return (int)(((uint32_t)e * 1217359) >> 19) + 1; }

/* a * b as {low, *high} */
static uint64_t umul128(uint64_t a, uint64_t b, uint64_t *high)
{
    const uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    const uint64_t middle = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *high = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32);
    return middle << 32 | (uint32_t)p00;
}

/* the 64 bits of a from bit `low` up; bits below 0 read as zero */
static uint64_t word_at(const uint64_t *a, int low)
{
    if (low <= -64)
        return 0;
    if (low < 0)
        return a[0] << -low;
    const int k = low / 64, shift = low % 64;
    return shift == 0 ? a[k] : a[k] >> shift | a[k + 1] << (64 - shift);
}

static int at_least(const uint64_t *a, const uint64_t *b)
{
    for (int k = LIMBS - 1; k >= 0; k--)
        if (a[k] != b[k])
            return a[k] > b[k];
    return 1;
}

static void add(uint64_t *a, const uint64_t *b)
{
    uint64_t carry = 0;
    for (int k = 0; k < LIMBS; k++) {
        const uint64_t sum = a[k] + carry;
        carry = sum < carry;
        a[k] = sum + b[k];
        carry += a[k] < sum;
    }
}

static void subtract(uint64_t *a, const uint64_t *b)
{
    uint64_t borrow = 0;
    for (int k = 0; k < LIMBS; k++) {
        const uint64_t x = a[k], y = b[k];
        a[k] = x - y - borrow;
        borrow = x < y || (x == y && borrow);
    }
}

/* Runs when the library is loaded, before any thread can call um_repr.
 *
 * POW5[i] is read off the big integer 5^i.  POW5_INV[q] is Q + 1 for
 * Q = 2^j / 5^q, j = bits(5^q) - 1 + 125, kept with its remainder R from
 * one q to the next: with s = bits(5^(q+1)) - bits(5^q) and 2^s Q = 5a + b,
 * 2^(j+s) = a 5^(q+1) + T for T = b 5^q + 2^s R < 12 5^q, so the next
 * quotient is a + T / 5^(q+1), at most a + 2. */
__attribute__((constructor)) static void build_tables(void)
{
    uint64_t pow5[LIMBS] = {1}, next[LIMBS], r[LIMBS] = {0};
    uint64_t q_low = 0, q_high = (uint64_t)1 << (POW5_BITS - 64);  /* 2^125 / 5^0 */
    for (int i = 0; i < POW5_COUNT; i++) {
        const int bits = pow5_bits(i), s = pow5_bits(i + 1) - bits;
        POW5[i][0] = word_at(pow5, bits - POW5_BITS);
        POW5[i][1] = word_at(pow5, bits - POW5_BITS + 64);
        uint64_t carry = 0;
        for (int k = 0; k < LIMBS; k++) {
            uint64_t high;
            next[k] = umul128(pow5[k], 5, &high) + carry;
            carry = high + (next[k] < carry);
        }
        if (i < POW5_INV_COUNT) {
            POW5_INV[i][0] = q_low + 1;
            POW5_INV[i][1] = q_high + (q_low + 1 == 0);
            /* a, b = divmod(2^s Q, 5), 32 bits at a time; 2^s Q < 2^128 */
            q_high = q_high << s | q_low >> (64 - s);
            q_low <<= s;
            const uint64_t top = q_high / 5, mid = (q_high % 5) << 32 | q_low >> 32;
            const uint64_t bottom = (mid % 5) << 32 | (uint32_t)q_low;
            const uint64_t b = bottom % 5;
            q_high = top;
            q_low = (mid / 5) << 32 | bottom / 5;
            /* T = b 5^q + 2^s R, then R = T mod 5^(q+1) */
            for (int k = LIMBS - 1; k > 0; k--)
                r[k] = r[k] << s | r[k - 1] >> (64 - s);
            r[0] <<= s;
            for (uint64_t n = 0; n < b; n++)
                add(r, pow5);
            while (at_least(r, next)) {
                subtract(r, next);
                q_low++;
                q_high += q_low == 0;
            }
        }
        memcpy(pow5, next, sizeof pow5);
    }
}

/* the top bits of the 192-bit hi:mid:lo >> s, for 64 < s < 128 */
static uint64_t shift_right(uint64_t mid, uint64_t hi, int s)
{
    return mid >> (s - 64) | hi << (128 - s);
}

/* (4m, 4m + 2 and 4m - 1 - mm_shift) * mul >> j, for m < 2^53 and
   118 <= j <= 125, from the one product P = 2m * mul */
static uint64_t mul_shift_all(uint64_t m, const uint64_t mul[2], int j, int mm_shift,
                              uint64_t *vp, uint64_t *vm)
{
    uint64_t carry, hi;
    const uint64_t lo = umul128(2 * m, mul[0], &carry);
    const uint64_t mid = umul128(2 * m, mul[1], &hi) + carry;
    hi += mid < carry;
    /* mul[1] < 2^63, so each sum or difference below carries at most once */
    const uint64_t lo_p = lo + mul[0];
    const uint64_t mid_p = mid + mul[1] + (lo_p < lo);
    *vp = shift_right(mid_p, hi + (mid_p < mid), j - 1);  /* P + mul */
    if (mm_shift) {
        const uint64_t lo_m = lo - mul[0];
        const uint64_t mid_m = mid - mul[1] - (lo_m > lo);
        *vm = shift_right(mid_m, hi - (mid_m > mid), j - 1);  /* P - mul */
    } else {
        const uint64_t lo_2 = 2 * lo, mid_2 = 2 * mid + (lo >> 63), hi_2 = 2 * hi + (mid >> 63);
        const uint64_t lo_m = lo_2 - mul[0];
        const uint64_t mid_m = mid_2 - mul[1] - (lo_m > lo_2);
        *vm = shift_right(mid_m, hi_2 - (mid_m > mid_2), j);  /* 2P - mul */
    }
    return shift_right(mid, hi, j - 1);
}

static int multiple_of_pow5(uint64_t value, int p)
{
    int count = 0;
    while (value % 5 == 0) {
        value /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t value, int p)
{
    return (value & (((uint64_t)1 << p) - 1)) == 0;
}

/* the shortest digits of a finite, nonzero double; returns the decimal
   exponent of the last digit */
static int shortest(uint64_t mantissa, int exponent, uint64_t *digits)
{
    int e2;
    uint64_t m2;
    if (exponent == 0) {
        e2 = 1 - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = mantissa;
    } else {
        e2 = exponent - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = (uint64_t)1 << MANTISSA_BITS | mantissa;
    }
    /* a tie read back goes to the even significand, so its bounds are in */
    const int accept_bounds = (m2 & 1) == 0;

    /* the value and the halfway points to its neighbours are mv, mp and mm
       times 2^e2; the lower neighbour is closer at a power of two */
    const uint64_t mv = 4 * m2;
    const int mm_shift = mantissa != 0 || exponent <= 1;

    /* vr, vp, vm are mv, mp, mm times 2^e2 in units of 10^e10, truncated */
    uint64_t vr, vp, vm;
    int e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const int q = log10_pow2(e2) - (e2 > 3);
        e10 = q;
        const int j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        vr = mul_shift_all(m2, POW5_INV[q], j, mm_shift, &vp, &vm);
        if (q <= 21) {
            /* only one of mp, mv and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int q = log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;
        const int i = -e2 - q;
        const int j = q - (pow5_bits(i) - POW5_BITS);
        vr = mul_shift_all(m2, POW5[i], j, mm_shift, &vp, &vm);
        if (q <= 1) {
            /* mv has two trailing zero bits, mp one, mm one iff mm_shift */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* drop digits while the interval still holds a shorter number */
    int removed = 0;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* the exact quotients matter: a bound may be in, or vr a tie */
        int last = 0;
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* an exact ...50..0 rounds to even */
        *digits = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        *digits = vr + (vr == vm || round_up);
    }
    return e10 + removed;
}

/* "00", "01", ... "99" */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* float.__repr__(x) at p; returns the end of the text */
static char *write_repr(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & (((uint64_t)1 << MANTISSA_BITS) - 1);
    const int exponent = (int)(bits >> MANTISSA_BITS & 0x7ff);
    if (exponent == 0x7ff && mantissa != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    uint64_t value;
    const int last = shortest(mantissa, exponent, &value);
    /* the digits, two at a time, right to left */
    char digits[20], *first = digits + sizeof digits;
    for (; value >= 100; value /= 100) {
        first -= 2;
        memcpy(first, PAIRS + 2 * (value % 100), 2);
    }
    if (value >= 10) {
        first -= 2;
        memcpy(first, PAIRS + 2 * value, 2);
    } else {
        *--first = (char)('0' + value);
    }
    const int n = (int)(digits + sizeof digits - first);
    /* the decimal point comes after `point` digits */
    const int point = last + n;

    if (point <= -4 || point > 16) {
        *p++ = first[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, first + 1, n - 1);
            p += n - 1;
        }
        int e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        *p++ = (char)('0' + e / 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -point);
        p += -point;
        memcpy(p, first, n);
        p += n;
    } else if (point >= n) {
        memcpy(p, first, n);
        p += n;
        memset(p, '0', point - n);
        p += point - n;
        *p++ = '.';
        *p++ = '0';
    } else {
        memcpy(p, first, point);
        p += point;
        *p++ = '.';
        memcpy(p, first + point, n - point);
        p += n - point;
    }
    return p;
}

/* The texts of x[0..n) joined by ',' into out; returns their length, or -1
 * (writing nothing) when capacity is below REPR_STRIDE * n. */
int64_t um_repr(const double *x, int64_t n, char *out, int64_t capacity)
{
    if (n < 0 || capacity / REPR_STRIDE < n)
        return -1;
    char *p = out;
    for (int64_t k = 0; k < n; k++) {
        if (k > 0)
            *p++ = ',';
        p = write_repr(x[k], p);
    }
    return p - out;
}
