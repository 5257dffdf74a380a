/* Python's float text, in bulk, both ways: the artifact writer's float text
 * and the artifact reader's float parse.
 *
 * The two writing entry points write whole artifact bodies.  um_repr_join
 * writes float.__repr__'s exact text for each of n doubles, joined by a
 * given separator: with ",\n    " it is the body of a JSON float array at
 * that indentation.  um_repr_rows writes the rows of a CSV file, an int64
 * index and then the float columns, joined by ',' and ended by '\n'.
 *
 * The digits are the shortest that read back to the same double, the
 * nearest to it when several are that short, an exact tie going to the
 * even one, which are the digits of CPython's dtoa in mode 0.  They come
 * from the Schubfach algorithm (R. Giulietti, "The Schubfach way to render
 * doubles", 2020), with no loop over digits: three products give the value
 * and the two bounds of its rounding interval in quarter units of 10^k,
 * rounded to odd; one test takes the number one digit shorter when exactly
 * one of its two neighbours lies in the interval, and otherwise the nearer
 * of the two k-digit neighbours, an exact tie to the even one.  Trailing
 * zeros are stripped by divisibility tests with the inverses of powers of
 * 5 modulo 2^64, and the digits are written in three 8-digit chunks, with
 * no branch on their value.  The layout is CPython's 'r' format with
 * Py_DTSF_ADD_DOT_0 (Python/pystrtod.c): exponent form when the decimal
 * point lies more than 16 places right or 4 places left of the first
 * digit, a signed exponent of at least two digits, and ".0" after an
 * integral value; "inf", "-inf" and "nan" for every NaN.
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
 * a 128-bit approximation of 10^q gives the 54 leading bits of the value,
 * and the rest of the product tells the rounding.  Where the truncated
 * product cannot tell it, the call declines too.
 *
 * Both directions share one constant table of 128-bit powers of ten.
 * _kernel.py computes it exactly from Python integers and writes it as the
 * macro POW10_ENTRIES into a header that the build reads with -include; a
 * static assertion fails the build when its length is wrong.  Only 64-bit
 * integer arithmetic is used, with umul128 the one 64x64 -> 128-bit
 * product, and nothing of the C library's printf, strtod or locale.
 */

#include <stdint.h>
#include <string.h>

/* "-2.2250738585072014e-308" is the longest float text and
   "-9223372036854775808" the longest index */
enum { REPR_MAX = 24, INDEX_MAX = 20 };
/* a parsed row's fields, and the significant digits a parsed field may have */
enum { FIELDS = 5, MAX_DIGITS = 19 };

#define MANTISSA_BITS 52
#define EXPONENT_BIAS 1023
#define INF_BITS ((uint64_t)0x7ff << MANTISSA_BITS)
/* float('nan'): the quiet NaN with a clear sign bit */
#define NAN_BITS (INF_BITS | (uint64_t)1 << (MANTISSA_BITS - 1))
/* w * 10^q is 0 below 10^MIN_Q and infinite above 10^MAX_Q; the writer
   scales by 10^t for -292 <= t <= TABLE_MAX_Q */
#define MIN_Q (-342)
#define MAX_Q 308
#define TABLE_MAX_Q 324
#define TABLE_COUNT (TABLE_MAX_Q - MIN_Q + 1)
/* an exponent's digits stop counting here, far outside [MIN_Q, MAX_Q] */
#define EXPONENT_CAP 100000

/* {low, high}: the 128 leading bits of 10^q for q from MIN_Q, truncated, plus
   one for -27 <= q <= -1, where 5^-q < 2^64; so the top bit is set */
static const uint64_t POW10[][2] = {POW10_ENTRIES};
_Static_assert(sizeof POW10 == sizeof(uint64_t[TABLE_COUNT][2]),
               "the power-of-ten table must have TABLE_COUNT entries");

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

/* floor(log2(10^q)) for -400 <= q <= 400; the offset keeps the shifted
   value non-negative, where >> is a floor in every C */
static int floor_log2_pow10(int q)
{
    return (int)((217706 * (int64_t)q + ((int64_t)1200 << 16)) >> 16) - 1200;
}

/* floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when three_quarters, for
   -1074 <= q <= 971; offset as above */
static int floor_log10_pow2(int q, int three_quarters)
{
    const int64_t scaled = 1262611 * (int64_t)q - (three_quarters ? 524031 : 0);
    return (int)((scaled + ((int64_t)400 << 22)) >> 22) - 400;
}

/* g * cp / 2^128 for the 128-bit g = {low, high}, rounded to odd: the
   integer part with its last bit set when the fraction is not zero */
static inline uint64_t round_to_odd(const uint64_t g[2], uint64_t cp)
{
    uint64_t x1, y1;
    umul128(g[0], cp, &x1);
    const uint64_t y0 = umul128(g[1], cp, &y1);
    const uint64_t z = y0 + x1;  /* the fraction's leading 64 bits */
    return (y1 + (z < y0)) | (z > 1);
}

/* 10^i for i < 20, then stops no value below 10^19 reaches */
static const uint64_t POWERS_OF_10[32] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u, UINT64_MAX, UINT64_MAX, UINT64_MAX,
    UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX,
    UINT64_MAX, UINT64_MAX, UINT64_MAX,
};

/* d / 10^j, with j added to *e, if 10^j divides d; else d.  inverse is
   5^-j mod 2^64, so d * inverse is d / 5^j when 5^j divides d, and the
   product rotated right by j bits is at most (2^64 - 1) / 10^j exactly when
   10^j divides d, and is then d / 10^j */
static inline uint64_t strip_zeros(uint64_t d, int *e, int j, uint64_t inverse)
{
    uint64_t quotient = d * inverse;
    quotient = quotient >> j | quotient << (64 - j);
    const int divides = quotient <= UINT64_MAX / POWERS_OF_10[j];
    *e += divides ? j : 0;
    return divides ? quotient : d;
}

/* the shortest digits of a finite, nonzero double, into *digits; returns
   the decimal exponent of the last digit.  A call of its own: inlined into
   write_repr, it made gcc 12's writer about 1.6 times as slow at -O2 */
#ifdef __GNUC__
__attribute__((noinline))
#endif
static int shortest(uint64_t mantissa, int exponent, uint64_t *digits)
{
    uint64_t c;
    int q;  /* the double is c * 2^q */
    if (exponent == 0) {
        c = mantissa;
        q = 1 - EXPONENT_BIAS - MANTISSA_BITS;
    } else {
        c = (uint64_t)1 << MANTISSA_BITS | mantissa;
        q = exponent - EXPONENT_BIAS - MANTISSA_BITS;
    }
    /* a tie read back goes to the even significand, so for an even c the
       bounds of the rounding interval are in it */
    const uint64_t out = c & 1;
    /* the lower neighbour is closer at a power of two */
    const int closer = mantissa == 0 && exponent > 1;
    /* k is the largest with 10^k at most the interval's width */
    const int k = floor_log10_pow2(q, closer);
    /* 10^-k = g * 2^(r - 128), with h = q + r the shift that scales
       4c * 2^q by 10^-k; 1 <= h <= 4 */
    const int t = -k, h = q + floor_log2_pow10(t) + 1;
    const uint64_t *entry = POW10[t - MIN_Q];
    /* Schubfach's g rounds 10^t up: the entry plus one, or the entry
       itself, where it already is; no low word is all ones */
    const uint64_t g[2] = {entry[0] + (t < -27 || t > -1), entry[1]};

    /* the value and the bounds of its rounding interval in quarter units of
       10^k, rounded to odd, and the bounds moved in when they are out */
    const uint64_t vb = round_to_odd(g, 4 * c << h);
    const uint64_t lower = round_to_odd(g, (4 * c - 2 + closer) << h) + out;
    const uint64_t upper = round_to_odd(g, (4 * c + 2) << h) - out;
    const uint64_t s = vb >> 2;  /* the value in units of 10^k, truncated */

    /* one digit shorter, if exactly one of its two neighbours is in; lower
       is positive, so 0 never is */
    const uint64_t sp = s / 10;
    const int up_in = lower <= 40 * sp, wp_in = 40 * sp + 40 <= upper;
    if (up_in != wp_in) {
        /* d < 10^16, so it ends in at most 15 zeros.  The digits below end
           in none: s or s + 1 ending in a zero would be 10 sp or
           10 (sp + 1), which would be in, and then taken here */
        uint64_t d = sp + wp_in;
        int e = k + 1;
        d = strip_zeros(d, &e, 8, 0xc767074b22e90e21u);
        d = strip_zeros(d, &e, 4, 0xd288ce703afb7e91u);
        d = strip_zeros(d, &e, 2, 0x8f5c28f5c28f5c29u);
        d = strip_zeros(d, &e, 1, 0xcccccccccccccccdu);
        *digits = d;
        return e;
    }
    const int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    if (u_in != w_in)
        *digits = s + w_in;
    else  /* both are in: the nearer, an exact tie to the even one */
        *digits = s + (vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
    return k;
}

/* "00", "01", ... "99" */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the digit count of value < 10^19 (one for 0), by a binary search for
   the largest i with 10^i <= value */
static inline int digit_count(uint64_t value)
{
    int i = 0;
    i += (value >= POWERS_OF_10[i + 16]) << 4;
    i += (value >= POWERS_OF_10[i + 8]) << 3;
    i += (value >= POWERS_OF_10[i + 4]) << 2;
    i += (value >= POWERS_OF_10[i + 2]) << 1;
    i += value >= POWERS_OF_10[i + 1];
    return i + 1;
}

/* the 8 digits of value < 10^8 at p, zeros in front */
static inline void write8(uint32_t value, char *p)
{
    const uint32_t high = value / 10000, low = value % 10000;
    memcpy(p, PAIRS + 2 * (high / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (high % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (low / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (low % 100), 2);
}

enum { DIGITS_MAX = 24 };

/* writes value < 10^19 as DIGITS_MAX digits, zeros in front, into digits;
   returns its first significant digit (the last for 0) */
static const char *decimal(uint64_t value, char digits[DIGITS_MAX])
{
    const uint64_t low16 = value % 10000000000000000u;
    write8((uint32_t)(value / 10000000000000000u), digits);
    write8((uint32_t)(low16 / 100000000), digits + 8);
    write8((uint32_t)(low16 % 100000000), digits + 16);
    return digits + DIGITS_MAX - digit_count(value);
}

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
    char digits[DIGITS_MAX];
    const char *first = decimal(value, digits);
    const int n = (int)(digits + DIGITS_MAX - first);
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
        /* the -point zeros after the decimal point are the ones in front
           of the digits */
        *p++ = '0';
        *p++ = '.';
        memcpy(p, first + point, n - point);
        p += n - point;
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

/* str(i) at p; returns the end of the text */
static char *write_index(int64_t i, char *p)
{
    uint64_t value = (uint64_t)i;
    if (i < 0) {
        *p++ = '-';
        value = 0 - value;
    }
    char digits[DIGITS_MAX];
    const char *first = decimal(value, digits);
    memcpy(p, first, digits + DIGITS_MAX - first);
    return p + (digits + DIGITS_MAX - first);
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

/* the bits of the double nearest w * 10^q, for w > 0, into *bits; returns
   -1 where that double is not normal or the product cannot decide */
static int eisel_lemire(uint64_t w, int64_t q, uint64_t *bits)
{
    if (q < MIN_Q || q > MAX_Q)
        return -1;
    const int lz = leading_zeros(w);
    w <<= lz;
    const uint64_t *pow10 = POW10[q - MIN_Q];
    uint64_t high, low = umul128(w, pow10[1], &high);
    /* the 55 bits kept end in ones: the low word of 10^q may carry into them */
    if ((high & 0x1ff) == 0x1ff) {
        uint64_t carry;
        umul128(w, pow10[0], &carry);
        low += carry;
        high += low < carry;
    }
    /* the truncated product may be one less than a carry into the kept
       bits; exact where 10^q or its rounded-up reciprocal is */
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
            if ((*p != '0' || w) && ++digits > MAX_DIGITS)
                return NULL;
            w = 10 * w + (uint64_t)(*p - '0');
        }
        if (p == start)
            return NULL;
        if (*p == '.') {
            start = ++p;
            for (; is_digit(*p); p++, q--) {
                if ((*p != '0' || w) && ++digits > MAX_DIGITS)
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

/* The texts of x[0..n) joined by sep[0..sep_len) into out; returns their
 * length, or -1 (writing nothing) when capacity < (REPR_MAX + sep_len) * n. */
int64_t um_repr_join(const double *x, int64_t n, const char *sep, int64_t sep_len,
                     char *out, int64_t capacity)
{
    if (n < 0 || sep_len < 0 || sep_len > INT64_MAX - REPR_MAX
        || capacity < 0 || capacity / (REPR_MAX + sep_len) < n)
        return -1;
    char *p = out;
    for (int64_t k = 0; k < n; k++) {
        if (k > 0) {
            memcpy(p, sep, sep_len);
            p += sep_len;
        }
        p = write_repr(x[k], p);
    }
    return p - out;
}

/* n CSV rows into out, row r being index[r] and then columns[k * n + r]
 * for k < width (the columns one after another), joined by ',' and ended
 * by '\n'; returns their length, or -1 (writing nothing) when
 * capacity < (INDEX_MAX + 1 + width * (REPR_MAX + 1)) * n. */
int64_t um_repr_rows(const int64_t *index, const double *columns, int64_t n, int64_t width,
                     char *out, int64_t capacity)
{
    if (n < 0 || width < 0 || width > (INT64_MAX - INDEX_MAX - 1) / (REPR_MAX + 1))
        return -1;
    const int64_t row_max = INDEX_MAX + 1 + width * (REPR_MAX + 1);
    if (capacity < 0 || capacity / row_max < n)
        return -1;
    char *p = out;
    for (int64_t r = 0; r < n; r++) {
        p = write_index(index[r], p);
        for (int64_t k = 0; k < width; k++) {
            *p++ = ',';
            p = write_repr(columns[k * n + r], p);
        }
        *p++ = '\n';
    }
    return p - out;
}

/* The rows of buf[0..len) as FIELDS doubles each into out; returns the row
 * count, or -1 (declining, with out's contents unspecified) when a row or
 * field is not as above, or when capacity is less than FIELDS doubles per
 * row. */
int64_t um_parse_rows(const char *buf, int64_t len, double *out, int64_t capacity)
{
    if (len < 1 || buf[len - 1] != '\n')
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
