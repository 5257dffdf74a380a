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
 * 5^i or 5^-q.  _kernel.py computes both tables exactly from Python
 * integers and installs them; um_repr formats nothing before.  Only 64-bit
 * integer arithmetic is used; umul128 is the one 64x64 -> 128-bit product.
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

/* {low, high}: 5^i >> (bits(5^i) - 125), and 2^(bits(5^q) - 1 + 125) / 5^q + 1 */
static uint64_t POW5[POW5_COUNT][2];
static uint64_t POW5_INV[POW5_INV_COUNT][2];
static int tables_installed;

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

/* Copies in the two tables, {low, high} per entry; returns 0, or -1
 * (copying nothing) when a count is not its table's. */
int um_install_tables(const uint64_t *pow5, int64_t pow5_count,
                      const uint64_t *pow5_inv, int64_t pow5_inv_count)
{
    if (pow5_count != POW5_COUNT || pow5_inv_count != POW5_INV_COUNT)
        return -1;
    memcpy(POW5, pow5, sizeof POW5);
    memcpy(POW5_INV, pow5_inv, sizeof POW5_INV);
    tables_installed = 1;
    return 0;
}

/* The texts of x[0..n) joined by ',' into out; returns their length, or -1
 * (writing nothing) without the tables or when capacity < REPR_STRIDE * n. */
int64_t um_repr(const double *x, int64_t n, char *out, int64_t capacity)
{
    if (!tables_installed || n < 0 || capacity / REPR_STRIDE < n)
        return -1;
    char *p = out;
    for (int64_t k = 0; k < n; k++) {
        if (k > 0)
            *p++ = ',';
        p = write_repr(x[k], p);
    }
    return p - out;
}
