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
 * A step rotates one state (ar, ai, br, bi) = (Re c1, Im c1, Re c2, Im c2),
 * scales it by the outcome's factors and divides it by the norm, as the
 * scalar loop advance_row spells it on those four doubles.  um_advance_rows
 * advances `rows` independent trajectories, each from its own state and
 * its own stream.  advance_group holds each component of LANES rows as
 * one vector across them (a half): every multiply, add, compare, division
 * and the sqrt is one packed operation that does in each lane what the
 * scalar line does, and the outcome is a bitwise blend of the two factors
 * under the lanes' compare mask.  A step is one dependent chain, whose
 * sqrt waits on the norm and whose divisions wait on the sqrt, and a
 * packed division's latency is about twice the interval at which the
 * divider accepts the next one, so one half leaves the divide/sqrt unit
 * idle much of each step.  um_advance_rows therefore runs each run of up
 * to eight rows as one group of two halves stepped in one loop: their
 * chains are independent, so the second half's sqrt and divisions fill
 * the first's idle cycles.  A group of fewer than eight rows pads its
 * lanes past the last row with copies of that row's state and stream:
 * they step as that row steps and stop where it stops, and nothing of
 * them is written back.  A lone row, simulate_trajectory's single row or
 * the last of 8k + 1, runs the scalar loop advance_row, whose lines the
 * packed step follows one for one.  Its chain is one row's alone, so it
 * scales, normalizes and divides the state by both outcomes' factors at
 * once, as two lanes, and only then takes the lane of the outcome read:
 * about 24 ns per measurement, against 31 ns with the outcome picked
 * first.  advance_group is built twice, for AVX2 and for the baseline ISA,
 * and the loader picks one per host (GROUP_CLONES).
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
 * the first row of it, with that row's state and stream and the states
 * and streams of the rows after it as they were.
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

/* the two outcomes' values of one quantity: "+" in lane 0, "-" in lane 1 */
typedef double outcomes_f64 __attribute__((vector_size(2 * sizeof(double))));

/* one row; returns 0, leaving `state` and `stream` as they were, where it
   stops.  A step's chain runs from the state through the rotation, the
   scaling, the norm and the divisions back to the state.  The outcome
   needs p_plus and the uniform, so picking it first would put them, and a
   branch that p_plus near one half mispredicts half the time, in that
   chain.  The step therefore scales, normalizes and divides the rotated
   state by both outcomes' factors, as the two lanes of one vector (one
   packed sqrt and four packed divisions), and only then takes the lane
   that u < p_plus reads, while p_plus, its check and the count run beside
   the chain.  Each lane does _python_advance's lines on its factors, so
   the lane taken holds the doubles the Python loop gives; the other lane
   may divide by a zero norm, which stops the row only where it is the
   lane taken */
static int advance_row(double *state, const double *constants, int64_t n, int64_t series,
                       uint64_t *stream, double *c2_sq, int64_t *n_plus)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    const outcomes_f64 f1 = {constants[4], constants[6]}, f2 = {constants[5], constants[7]};
    const double lo = constants[8], hi = constants[9];
    double ar = state[0], ai = state[1], br = state[2], bi = state[3];
    uint64_t r[4];
    int bad = 0;

    for (int k = 0; k < 4; k++)
        r[k] = stream[k];
    for (int64_t m = 0; m < series; m++) {
        int64_t count = 0;
        for (int64_t j = 0; j < n; j++) {
            const double u = next_uniform(r);
            /* rotate; x, y are the new (Re c1, Im c1) while ar, ai still
               hold the old ones that the new c2 needs */
            const double x = ch * ar + s * bi;
            const double y = ch * ai - s * br;
            br = ch * br + s * ai;
            bi = ch * bi - s * ar;
            const double p_plus = p1 * (x * x + y * y) + p2 * (br * br + bi * bi);
            bad |= !(p_plus >= lo && p_plus <= hi);
            const int plus = u < p_plus;
            count += plus;
            /* the scaling by each outcome's factors, and the division by
               each one's norm */
            outcomes_f64 sar = x * f1, sai = y * f1, sbr = br * f2, sbi = bi * f2;
            const outcomes_f64 sq = (sar * sar + sai * sai) + (sbr * sbr + sbi * sbi);
            /* one packed sqrt, as -fno-math-errno lets the compiler build it */
            const outcomes_f64 norm = {sqrt(sq[0]), sqrt(sq[1])};
            sar /= norm;
            sai /= norm;
            sbr /= norm;
            sbi /= norm;
            bad |= (plus ? norm[0] : norm[1]) == 0.0;
            ar = plus ? sar[0] : sar[1];
            ai = plus ? sai[0] : sai[1];
            br = plus ? sbr[0] : sbr[1];
            bi = plus ? sbi[0] : sbi[1];
        }
        if (bad)
            return 0;
        c2_sq[m] = br * br + bi * bi;
        n_plus[m] = count;
    }
    state[0] = ar;
    state[1] = ai;
    state[2] = br;
    state[3] = bi;
    for (int k = 0; k < 4; k++)
        stream[k] = r[k];
    return 1;
}

/* a half is LANES rows, a group two halves */
enum { LANES = 4, GROUP_ROWS = 2 * LANES };

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
   half; a comparison's mask is cast to lanes_i64, whose element type a
   compiler may spell otherwise */
typedef double lanes_f64 __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t lanes_i64 __attribute__((vector_size(LANES * sizeof(int64_t))));
#define SPLAT(x) {x, x, x, x}
/* the helpers below take vectors by pointer and return none, so no vector
   crosses a call of the baseline ABI (-Wpsabi), and always inline, so a
   half's vectors stay in registers */
#define INLINE static inline __attribute__((always_inline))

/* a step's constants across the lanes; the outcomes' factors as bits, for
   the blend in step() */
struct step_constants {
    double ch, s, p1, p2;
    lanes_i64 u1_plus, u2_plus, u1_minus, u2_minus;
    lanes_f64 lo, hi;
};

/* LANES rows: each component as one vector across them, named as in the
   Python loop, each row's stream and each row's "+" count of the series */
struct half {
    lanes_f64 ar, ai, br, bi;
    lanes_i64 count;
    uint64_t r[LANES][4];
};

/* the lanes of h are the group's rows from `first`; a lane past the
   group's last row repeats that row's state and stream, so it steps as
   that row steps and stops where that row stops */
INLINE void load_half(struct half *h, int first, int rows, const double *state,
                      const uint64_t *streams)
{
    for (int l = 0; l < LANES; l++) {
        const int row = first + l < rows ? first + l : rows - 1;
        h->ar[l] = state[4 * row];
        h->ai[l] = state[4 * row + 1];
        h->br[l] = state[4 * row + 2];
        h->bi[l] = state[4 * row + 3];
        for (int k = 0; k < 4; k++)
            h->r[l][k] = streams[4 * row + k];
    }
    h->count = (lanes_i64)SPLAT(0);
}

/* one measurement in each lane of `h`: advance_row's operations on the
   outcome each lane reads; sets the lanes of `bad` where a row stops */
INLINE void step(struct half *h, const struct step_constants *k, lanes_i64 *bad)
{
    const lanes_f64 u = {next_uniform(h->r[0]), next_uniform(h->r[1]),
                         next_uniform(h->r[2]), next_uniform(h->r[3])};
    /* the rotation in each lane */
    const lanes_f64 x = k->ch * h->ar + k->s * h->bi;
    const lanes_f64 y = k->ch * h->ai - k->s * h->br;
    h->br = k->ch * h->br + k->s * h->ai;
    h->bi = k->ch * h->bi - k->s * h->ar;
    h->ar = x;
    h->ai = y;
    const lanes_f64 p_plus = k->p1 * (x * x + y * y) + k->p2 * (h->br * h->br + h->bi * h->bi);
    *bad |= ~(lanes_i64)((p_plus >= k->lo) & (p_plus <= k->hi));
    /* a comparison is -1 in the lanes where it holds and 0 in the others,
       so this counts each "+" and blends in its factors */
    const lanes_i64 plus = (lanes_i64)(u < p_plus);
    h->count -= plus;
    const lanes_f64 f1 = (lanes_f64)((plus & k->u1_plus) | (~plus & k->u1_minus));
    const lanes_f64 f2 = (lanes_f64)((plus & k->u2_plus) | (~plus & k->u2_minus));
    /* the scaling by the outcome's factors in each lane */
    h->ar *= f1;
    h->ai *= f1;
    h->br *= f2;
    h->bi *= f2;
    const lanes_f64 sq = (h->ar * h->ar + h->ai * h->ai) + (h->br * h->br + h->bi * h->bi);
    /* one packed sqrt, as -fno-math-errno lets the compiler build it */
    const lanes_f64 norm = {sqrt(sq[0]), sqrt(sq[1]), sqrt(sq[2]), sqrt(sq[3])};
    *bad |= (lanes_i64)(norm == (lanes_f64)SPLAT(0.0));
    /* the division by the norm in each lane */
    h->ar /= norm;
    h->ai /= norm;
    h->br /= norm;
    h->bi /= norm;
}

/* writes series m's |c2|^2 and "+" count of each of the group's rows in
   h, and starts the next count; a padding lane writes nothing */
INLINE void record_half(struct half *h, int first, int rows, int64_t series, int64_t m,
                        double *c2_sq, int64_t *n_plus)
{
    const lanes_f64 c2 = h->br * h->br + h->bi * h->bi;
    for (int l = 0; l < LANES && first + l < rows; l++) {
        c2_sq[(first + l) * series + m] = c2[l];
        n_plus[(first + l) * series + m] = h->count[l];
    }
    h->count = (lanes_i64)SPLAT(0);
}

INLINE void store_half(const struct half *h, int first, int rows, double *state,
                       uint64_t *streams)
{
    for (int l = 0; l < LANES && first + l < rows; l++) {
        const int row = first + l;
        state[4 * row] = h->ar[l];
        state[4 * row + 1] = h->ai[l];
        state[4 * row + 2] = h->br[l];
        state[4 * row + 3] = h->bi[l];
        for (int k = 0; k < 4; k++)
            streams[4 * row + k] = h->r[l][k];
    }
}

/* 2 to GROUP_ROWS rows as the two halves of a group, stepped in one loop,
   the lanes past the last row padding.  Returns 0, leaving `state` and
   `streams` as they were, where some lane stops */
static GROUP_CLONES int advance_group(int rows, double *state, const double *constants,
                                      int64_t n, int64_t series, uint64_t *streams,
                                      double *c2_sq, int64_t *n_plus)
{
    const struct step_constants k = {
        constants[0], constants[1], constants[2], constants[3],
        (lanes_i64)(lanes_f64)SPLAT(constants[4]), (lanes_i64)(lanes_f64)SPLAT(constants[5]),
        (lanes_i64)(lanes_f64)SPLAT(constants[6]), (lanes_i64)(lanes_f64)SPLAT(constants[7]),
        (lanes_f64)SPLAT(constants[8]), (lanes_f64)SPLAT(constants[9]),
    };
    struct half h0, h1;
    lanes_i64 bad = SPLAT(0);

    load_half(&h0, 0, rows, state, streams);
    load_half(&h1, LANES, rows, state, streams);
    for (int64_t m = 0; m < series; m++) {
        for (int64_t j = 0; j < n; j++) {
            step(&h0, &k, &bad);
            step(&h1, &k, &bad);
        }
        if (bad[0] | bad[1] | bad[2] | bad[3])
            return 0;
        record_half(&h0, 0, rows, series, m, c2_sq, n_plus);
        record_half(&h1, LANES, rows, series, m, c2_sq, n_plus);
    }
    store_half(&h0, 0, rows, state, streams);
    store_half(&h1, LANES, rows, state, streams);
    return 1;
}

int64_t um_advance_rows(double *state, const double *constants, int64_t n, int64_t series,
                        int64_t rows, uint64_t *streams, double *c2_sq, int64_t *n_plus)
{
    for (int64_t row = 0; row < rows; row += GROUP_ROWS) {
        const int group = rows - row < GROUP_ROWS ? (int)(rows - row) : GROUP_ROWS;
        double *const at = state + 4 * row, *const c2 = c2_sq + row * series;
        uint64_t *const stream = streams + 4 * row;
        int64_t *const plus = n_plus + row * series;
        /* a lone row steps faster in the scalar loop than in a group padded
           with seven copies of it */
        if (!(group == 1 ? advance_row(at, constants, n, series, stream, c2, plus)
                         : advance_group(group, at, constants, n, series, stream, c2, plus)))
            return row;
    }
    return rows;
}
