/* The measurement kernel of trajectory._python_advance, compiled, with the
 * uniforms it reads drawn inline, bit for bit as numpy draws them.
 *
 * Each line below is the Python loop's line with the same operands in the
 * same order, so with IEEE double arithmetic and no contraction of a
 * multiply and an add into one fused operation it gives the same doubles
 * bit for bit.  Build with -O2 -ffp-contract=off -fno-math-errno and never
 * with -ffast-math (which would let the compiler regroup sums); _kernel.py
 * passes exactly those flags.  -fno-math-errno only lets sqrt skip setting
 * errno, and sqrt is correctly rounded either way.
 *
 * A step is rotate, then scale by the outcome's factors, then divide by
 * the norm, on one state c = (Re c1, Im c1, Re c2, Im c2).  um_advance_rows
 * advances `rows` independent trajectories, each from its own state and
 * its own stream.  Every step is one dependent chain of multiplies, a sqrt
 * and four divisions, so one trajectory leaves most of the core idle.
 * um_advance_rows therefore runs each full group of LANES rows through
 * advance_group, which holds each component as one vector across the four
 * rows: every multiply, add, compare, division and the sqrt is one packed
 * operation that does in each lane what the scalar line does, and the
 * outcome is a bitwise blend of the two factors under the lanes' compare
 * mask.  advance_group is built twice, for AVX2 and for the baseline ISA,
 * and the loader picks one per host (GROUP_CLONES).  Each row after the
 * last full group, and simulate_trajectory's single row, runs the scalar
 * loop advance_row, whose lines advance_group's follow one for one.
 *
 * A stream is numpy's PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
 * Space-Efficient Statistically Good Algorithms for Random Number
 * Generation", HMC-CS-2014-0905, 2014): a 128-bit LCG whose draw is the
 * XSL-RR output of the stepped state, and a uniform is that draw's top 53
 * bits times 2^-53, as numpy's Generator.random() makes it.  It is held as
 * four words, the state and the increment, each {low, high}: the ints of
 * numpy's PCG64.state["state"].  um_seed seeds one from a 64-bit seed as
 * numpy's PCG64(seed) does, through O'Neill's seed_seq_fe hash as numpy's
 * SeedSequence has it, so row i of a call draws what
 * Generator(PCG64(seeds[i])).random() draws.  Each row draws its uniform
 * inline, one scalar stream per lane, so the stream's multiply runs beside
 * the step's dependent chain.
 *
 * The kernel raises nothing.  A row stops where p_plus leaves [lo, hi] or
 * the norm is zero; um_advance_rows then returns the row, or for a group
 * of lanes the group's first row, with that row's state and stream and
 * the states and streams of the rows after it as they were.
 * trajectory._compiled_advance runs that row and every row after it
 * through the Python loop on numpy's draws of the same streams, which
 * raises the error.
 *
 * seeds     rows seeds, each below 2^64
 * state     rows x 4: Re c1, Im c1, Re c2, Im c2; updated in place
 * constants ch, s, p1, p2, u1_plus, u2_plus, u1_minus, u2_minus, lo, hi
 *           as trajectory._constants lays them out
 * streams   rows x 4: state low, state high, increment low, increment
 *           high; written by um_seed, advanced in place by um_advance_rows
 * c2_sq     out, rows x series: |c2|^2 after each series
 * n_plus    out, rows x series: each series' "+" count
 */

#include <math.h>
#include <stdint.h>

#include "_umul128.h"

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128 */
#define MULTIPLIER_LOW 0x4385df649fccf645u
#define MULTIPLIER_HIGH 0x2360ed051fc65da4u
/* numpy's SeedSequence constants */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

/* step the stream's LCG, s = s * MULTIPLIER + inc modulo 2^128, and return
   the new state's XSL-RR output: the xor of its halves rotated right by
   its top six bits */
static inline uint64_t next_uint64(uint64_t *stream)
{
    uint64_t high;
    const uint64_t low = umul128(stream[0], MULTIPLIER_LOW, &high);
    high += stream[0] * MULTIPLIER_HIGH + stream[1] * MULTIPLIER_LOW;
    stream[0] = low + stream[2];
    stream[1] = high + stream[3] + (stream[0] < low);
    const unsigned rotation = (unsigned)(stream[1] >> 58);
    const uint64_t x = stream[1] ^ stream[0];
    return x >> rotation | x << (-rotation & 63);
}

/* numpy's Generator.random(): 53 random bits times 2^-53, in [0, 1) */
static inline double next_uniform(uint64_t *stream)
{
    return (double)(next_uint64(stream) >> 11) * (1.0 / 9007199254740992.0);
}

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* numpy's PCG64(seed).state.  SeedSequence(seed) hashes the seed's 32-bit
   words, low first, into a pool of four: one word for a seed below 2^32
   and two otherwise, and the pool hashes a missing word as a zero, so
   both are the seed's two words.  generate_state(4, uint64) then gives
   words w, each of two pool hashes, low first.  PCG64's set_seed starts
   the LCG at 0 with the increment (w2:w3) << 1 | 1, steps it, adds the
   state (w0:w1) and steps it again */
static void seed_stream(uint64_t seed, uint64_t *stream)
{
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0};
    uint32_t hash = INIT_A;
    uint64_t w[4] = {0};

    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(pool[i], &hash);
    for (int from = 0; from < 4; from++)
        for (int to = 0; to < 4; to++)
            if (from != to)
                pool[to] = mix(pool[to], hashmix(pool[from], &hash));
    hash = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= MULT_B;
        value *= hash;
        value ^= value >> 16;
        w[i / 2] |= (uint64_t)value << 32 * (i % 2);
    }
    stream[0] = stream[1] = 0;
    stream[2] = w[3] << 1 | 1;
    stream[3] = w[2] << 1 | w[3] >> 63;
    next_uint64(stream);
    stream[0] += w[1];
    stream[1] += w[0] + (stream[0] < w[1]);
    next_uint64(stream);
}

void um_seed(const uint64_t *seeds, int64_t rows, uint64_t *streams)
{
    for (int64_t row = 0; row < rows; row++)
        seed_stream(seeds[row], streams + 4 * row);
}

/* drive c for tau; returns p_plus of the rotated state */
static inline double rotate(double *c, double ch, double s, double p1, double p2)
{
    /* x, y are the new (Re c1, Im c1) while c[0], c[1] still hold the old
       ones that the new c2 needs */
    const double x = ch * c[0] + s * c[3];
    const double y = ch * c[1] - s * c[2];
    c[2] = ch * c[2] + s * c[1];
    c[3] = ch * c[3] - s * c[0];
    c[0] = x;
    c[1] = y;
    return p1 * (x * x + y * y) + p2 * (c[2] * c[2] + c[3] * c[3]);
}

/* scale c by an outcome's factors; returns the norm of the result */
static inline double scale(double *c, double f1, double f2)
{
    c[0] *= f1;
    c[1] *= f1;
    c[2] *= f2;
    c[3] *= f2;
    return sqrt((c[0] * c[0] + c[1] * c[1]) + (c[2] * c[2] + c[3] * c[3]));
}

static inline void divide(double *c, double norm)
{
    c[0] /= norm;
    c[1] /= norm;
    c[2] /= norm;
    c[3] /= norm;
}

/* one row; returns 0, leaving `state` and `stream` as they were, where it stops */
static int advance_row(double *state, const double *constants, int64_t n, int64_t series,
                       uint64_t *stream, double *c2_sq, int64_t *n_plus)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    const double u1_plus = constants[4], u2_plus = constants[5];
    const double u1_minus = constants[6], u2_minus = constants[7];
    const double lo = constants[8], hi = constants[9];
    double c[4];
    uint64_t r[4];
    int bad = 0;

    for (int k = 0; k < 4; k++) {
        c[k] = state[k];
        r[k] = stream[k];
    }
    for (int64_t m = 0; m < series; m++) {
        int64_t count = 0;
        for (int64_t j = 0; j < n; j++) {
            const double u = next_uniform(r);
            const double p_plus = rotate(c, ch, s, p1, p2);
            bad |= !(p_plus >= lo && p_plus <= hi);
            const int plus = u < p_plus;
            count += plus;
            const double norm = scale(c, plus ? u1_plus : u1_minus, plus ? u2_plus : u2_minus);
            bad |= norm == 0.0;
            divide(c, norm);
        }
        if (bad)
            return 0;
        c2_sq[m] = c[2] * c[2] + c[3] * c[3];
        n_plus[m] = count;
    }
    for (int k = 0; k < 4; k++) {
        state[k] = c[k];
        stream[k] = r[k];
    }
    return 1;
}

enum { LANES = 4 };

/* GROUP_CLONES builds the group loop twice, for AVX2 and for the baseline
   ISA, and the dynamic loader picks one per host through an ifunc, which
   GCC and clang make on x86-64 ELF.  Elsewhere, or built with
   -DGROUP_CLONES= as the tests and CI build it too, the one baseline copy
   runs the same vector code */
#ifndef GROUP_CLONES
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && defined(__ELF__)
#define GROUP_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define GROUP_CLONES
#endif
#endif

/* one state component, or one 0 / -1 mask, across the LANES rows of a
   group; a comparison's mask is cast to lanes_i64, whose element type a
   compiler may spell otherwise */
typedef double lanes_f64 __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t lanes_i64 __attribute__((vector_size(LANES * sizeof(int64_t))));
#define SPLAT(x) {x, x, x, x}

/* LANES rows, each component one vector across them, named as in the
   Python loop; every lane runs advance_row's operations in its order.
   Returns 0, leaving `state` and `streams` as they were, where some lane
   stops */
static GROUP_CLONES int advance_group(double *state, const double *constants, int64_t n,
                                      int64_t series, uint64_t *streams, double *c2_sq,
                                      int64_t *n_plus)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    /* the outcomes' factors as bits, for the blend below */
    const lanes_i64 u1_plus = (lanes_i64)(lanes_f64)SPLAT(constants[4]);
    const lanes_i64 u2_plus = (lanes_i64)(lanes_f64)SPLAT(constants[5]);
    const lanes_i64 u1_minus = (lanes_i64)(lanes_f64)SPLAT(constants[6]);
    const lanes_i64 u2_minus = (lanes_i64)(lanes_f64)SPLAT(constants[7]);
    const lanes_f64 lo = SPLAT(constants[8]), hi = SPLAT(constants[9]), zero = SPLAT(0.0);
    lanes_f64 ar, ai, br, bi;
    uint64_t r[LANES][4];
    lanes_i64 bad = SPLAT(0);

    for (int l = 0; l < LANES; l++) {
        ar[l] = state[4 * l];
        ai[l] = state[4 * l + 1];
        br[l] = state[4 * l + 2];
        bi[l] = state[4 * l + 3];
        for (int k = 0; k < 4; k++)
            r[l][k] = streams[4 * l + k];
    }
    for (int64_t m = 0; m < series; m++) {
        lanes_i64 count = SPLAT(0);
        for (int64_t j = 0; j < n; j++) {
            const lanes_f64 u = {next_uniform(r[0]), next_uniform(r[1]), next_uniform(r[2]),
                                 next_uniform(r[3])};
            /* rotate() in each lane */
            const lanes_f64 x = ch * ar + s * bi;
            const lanes_f64 y = ch * ai - s * br;
            br = ch * br + s * ai;
            bi = ch * bi - s * ar;
            ar = x;
            ai = y;
            const lanes_f64 p_plus = p1 * (x * x + y * y) + p2 * (br * br + bi * bi);
            bad |= ~(lanes_i64)((p_plus >= lo) & (p_plus <= hi));
            /* a comparison is -1 in the lanes where it holds and 0 in the
               others, so this counts each "+" and blends in its factors */
            const lanes_i64 plus = (lanes_i64)(u < p_plus);
            count -= plus;
            const lanes_f64 f1 = (lanes_f64)((plus & u1_plus) | (~plus & u1_minus));
            const lanes_f64 f2 = (lanes_f64)((plus & u2_plus) | (~plus & u2_minus));
            /* scale() in each lane */
            ar *= f1;
            ai *= f1;
            br *= f2;
            bi *= f2;
            const lanes_f64 sq = (ar * ar + ai * ai) + (br * br + bi * bi);
            /* one packed sqrt, as -fno-math-errno lets the compiler build it */
            const lanes_f64 norm = {sqrt(sq[0]), sqrt(sq[1]), sqrt(sq[2]), sqrt(sq[3])};
            bad |= (lanes_i64)(norm == zero);
            /* divide() in each lane */
            ar /= norm;
            ai /= norm;
            br /= norm;
            bi /= norm;
        }
        if (bad[0] | bad[1] | bad[2] | bad[3])
            return 0;
        const lanes_f64 c2 = br * br + bi * bi;
        for (int l = 0; l < LANES; l++) {
            c2_sq[l * series + m] = c2[l];
            n_plus[l * series + m] = count[l];
        }
    }
    for (int l = 0; l < LANES; l++) {
        state[4 * l] = ar[l];
        state[4 * l + 1] = ai[l];
        state[4 * l + 2] = br[l];
        state[4 * l + 3] = bi[l];
        for (int k = 0; k < 4; k++)
            streams[4 * l + k] = r[l][k];
    }
    return 1;
}

int64_t um_advance_rows(double *state, const double *constants, int64_t n, int64_t series,
                        int64_t rows, uint64_t *streams, double *c2_sq, int64_t *n_plus)
{
    int64_t row = 0;

    for (; row + LANES <= rows; row += LANES)
        if (!advance_group(state + 4 * row, constants, n, series, streams + 4 * row,
                           c2_sq + row * series, n_plus + row * series))
            return row;
    for (; row < rows; row++)
        if (!advance_row(state + 4 * row, constants, n, series, streams + 4 * row,
                         c2_sq + row * series, n_plus + row * series))
            return row;
    return rows;
}
