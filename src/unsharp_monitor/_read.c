/* The data rows of a trajectory CSV, read in bulk: the artifact reader's
 * float parse.
 *
 * um_parse_rows reads rows of exactly FIELDS fields, joined by ',' and each
 * ended by '\n', into doubles, row after row.  A field must be spelled as
 * float.__repr__ spells a double: -?digits[.digits][e[+-]digits], "inf",
 * "-inf" or "nan", with at most 19 significant digits.  Its value is the
 * one float() gives: "nan" is the NaN float('nan') returns, and a zero
 * keeps its sign.  Anything else makes the whole call decline (return -1),
 * and the caller reads the rows with float(): blank lines, '\r', spaces,
 * '+', '_', "-nan", any other byte, more digits, and every decimal whose
 * double is not a zero or normal (it would underflow, be subnormal or
 * overflow).  So a row is never read two ways, and the reader's error
 * texts stay float()'s.
 *
 * A decimal w * 10^q, 0 < w < 10^19, goes to the nearest double (an exact
 * tie to the even one) by the Eisel-Lemire algorithm (Lemire, "Number
 * parsing at a gigabyte per second", Softw. Pract. Exp. 51, 1700 (2021)),
 * laid out as the fast_float library does it: w, shifted to 64 bits, times
 * a 128-bit approximation of 5^q gives the 54 leading bits of the value,
 * and the rest of the product tells the rounding.  Where the truncated
 * product cannot tell it, the call declines too.  _kernel.py computes the
 * table exactly from Python integers and installs it; until then every
 * call declines.  Only 64-bit integer arithmetic is used, and nothing of
 * the C library's strtod or locale.
 */

#include <stdint.h>
#include <string.h>

enum { FIELDS = 5, MAX_DIGITS = 19 };

#define MANTISSA_BITS 52
#define EXPONENT_BIAS 1023
#define INF_BITS ((uint64_t)0x7ff << MANTISSA_BITS)
/* float('nan'): the quiet NaN with a clear sign bit */
#define NAN_BITS (INF_BITS | (uint64_t)1 << (MANTISSA_BITS - 1))
/* w * 10^q is 0 below 10^MIN_Q and infinite above 10^MAX_Q */
#define MIN_Q (-342)
#define MAX_Q 308
#define POW5_COUNT (MAX_Q - MIN_Q + 1)
/* an exponent's digits stop counting here, far outside [MIN_Q, MAX_Q] */
#define EXPONENT_CAP 100000

/* {low, high}: 5^q shifted to 128 bits, truncated for q >= 0; for q < 0
   2^(bits(5^-q) + 127) / 5^-q, plus one where 5^-q < 2^64 */
static uint64_t POW5_128[POW5_COUNT][2];
static int table_installed;

/* a * b as {low, *high}, as in _repr.c */
static uint64_t umul128(uint64_t a, uint64_t b, uint64_t *high)
{
    const uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    const uint64_t middle = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *high = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32);
    return middle << 32 | (uint32_t)p00;
}

/* the leading zero bits of w > 0 */
static int leading_zeros(uint64_t w)
{
    int n = 0;
    for (int step = 32; step > 0; step /= 2) {
        if (w >> (64 - step) == 0) {
            w <<= step;
            n += step;
        }
    }
    return n;
}

/* floor(log2(10^q)) for MIN_Q <= q <= MAX_Q; the offset keeps the shifted
   value non-negative, where >> is a floor in every C */
static int floor_log2_pow10(int q)
{
    return (int)((217706 * (int64_t)q + ((int64_t)1200 << 16)) >> 16) - 1200;
}

/* the bits of the double nearest w * 10^q, for w > 0, into *bits; returns
   -1 where that double is not normal or the product cannot decide */
static int eisel_lemire(uint64_t w, int64_t q, uint64_t *bits)
{
    if (q < MIN_Q || q > MAX_Q)
        return -1;
    const int lz = leading_zeros(w);
    w <<= lz;
    const uint64_t *pow5 = POW5_128[q - MIN_Q];
    uint64_t high, low = umul128(w, pow5[1], &high);
    /* the 55 bits kept end in ones: the low word of 5^q may carry into them */
    if ((high & 0x1ff) == 0x1ff) {
        uint64_t carry;
        umul128(w, pow5[0], &carry);
        low += carry;
        high += low < carry;
    }
    /* the truncated product may be one less than a carry into the kept
       bits; exact where 5^q or its rounded-up reciprocal is */
    if (low == UINT64_MAX && (q < -27 || q > 55))
        return -1;
    const int upper = (int)(high >> 63);
    const int shift = upper + 64 - MANTISSA_BITS - 3;
    uint64_t mantissa = high >> shift;  /* 54 bits: the double's 53 and one to round */
    int power2 = floor_log2_pow10((int)q) + 63 + upper - lz + EXPONENT_BIAS;
    if (power2 <= 0)
        return -1;  /* subnormal or zero */
    /* halfway, with only zeros dropped: the exact tie goes to even; only
       for these q is 5^|q| short enough for the product to be exact */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && mantissa << shift == high)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> (MANTISSA_BITS + 1)) {  /* rounded up to the next power of two */
        mantissa >>= 1;
        power2++;
    }
    if (power2 >= 0x7ff)
        return -1;  /* overflows to infinity */
    *bits = (mantissa & (((uint64_t)1 << MANTISSA_BITS) - 1)) | (uint64_t)power2 << MANTISSA_BITS;
    return 0;
}

static int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* reads one field at p into *value; returns the byte after it, or NULL to
   decline.  The buffer ends in '\n', which stops every scan below. */
static const char *parse_field(const char *p, double *value)
{
    uint64_t bits = 0;
    if (*p == '-') {
        bits = (uint64_t)1 << 63;
        p++;
    }
    if (p[0] == 'i' && p[1] == 'n' && p[2] == 'f') {
        bits |= INF_BITS;
        p += 3;
    } else if (p[0] == 'n' && p[1] == 'a' && p[2] == 'n') {
        if (bits)
            return NULL;  /* float("-nan") keeps the sign; float() reads it */
        bits = NAN_BITS;
        p += 3;
    } else {
        uint64_t w = 0;
        int64_t q = 0;
        int digits = 0;  /* in w: leading zeros are not significant */
        const char *start = p;
        for (; is_digit(*p); p++) {
            if ((w || *p != '0') && ++digits > MAX_DIGITS)
                return NULL;
            w = 10 * w + (uint64_t)(*p - '0');
        }
        if (p == start)
            return NULL;
        if (*p == '.') {
            start = ++p;
            for (; is_digit(*p); p++, q--) {
                if ((w || *p != '0') && ++digits > MAX_DIGITS)
                    return NULL;
                w = 10 * w + (uint64_t)(*p - '0');
            }
            if (p == start)
                return NULL;
        }
        if (*p == 'e') {
            const int negative = *++p == '-';
            if (!negative && *p != '+')
                return NULL;
            start = ++p;
            int64_t e = 0;
            for (; is_digit(*p); p++) {
                if (e < EXPONENT_CAP)
                    e = 10 * e + (*p - '0');
            }
            if (p == start)
                return NULL;
            q += negative ? -e : e;
        }
        uint64_t magnitude = 0;  /* a zero keeps its sign, whatever the exponent */
        if (w && eisel_lemire(w, q, &magnitude))
            return NULL;
        bits |= magnitude;
    }
    memcpy(value, &bits, sizeof bits);
    return p;
}

/* Copies in the table, {low, high} per entry; returns 0, or -1 (copying
 * nothing) when count is not its length. */
int um_install_parse_table(const uint64_t *table, int64_t count)
{
    if (count != POW5_COUNT)
        return -1;
    memcpy(POW5_128, table, sizeof POW5_128);
    table_installed = 1;
    return 0;
}

/* The rows of buf[0..len) as FIELDS doubles each into out; returns the row
 * count, or -1 (declining, with out's contents unspecified) without the
 * table, when a row or field is not as above, or when capacity is less
 * than FIELDS doubles per row. */
int64_t um_parse_rows(const char *buf, int64_t len, double *out, int64_t capacity)
{
    if (!table_installed || len < 1 || buf[len - 1] != '\n')
        return -1;
    const char *p = buf, *end = buf + len;
    int64_t k = 0;
    while (p < end) {
        if (capacity - k < FIELDS)
            return -1;
        for (int field = 0; field < FIELDS; field++) {
            p = parse_field(p, out + k++);
            if (p == NULL || *p++ != (field < FIELDS - 1 ? ',' : '\n'))
                return -1;
        }
    }
    return k / FIELDS;
}
