/* The measurement kernel of trajectory._python_advance, compiled.
 *
 * Each line below is the Python loop's line with the same operands in the
 * same order, so with IEEE double arithmetic and no contraction of a
 * multiply and an add into one fused operation it gives the same doubles
 * bit for bit.  Build with -O2 -ffp-contract=off and never with
 * -ffast-math (which would let the compiler regroup sums); _kernel.py
 * passes exactly those flags.
 *
 * um_advance_rows advances `rows` independent trajectories, each from its
 * own state and its own uniforms.  Every step is one dependent chain of
 * multiplies, a sqrt and four divisions, so one trajectory leaves most of
 * the core idle.  Rows therefore run LANES at a time through
 * advance_lanes, whose lanes interleave those chains; each lane does its
 * row's operations in the scalar order, so it gives the row's doubles.
 * A tail of fewer than LANES rows runs advance_row, the scalar loop, one
 * row at a time.
 *
 * The lanes take the outcome as a select of the two scale factors rather
 * than a branch, and only flag an excursion or a zero norm.  A flagged
 * group is rerun row by row through advance_row from the states it
 * started from, so the first failing row stops the call with the status
 * and excursion value the scalar loop gives, and the rows before it end
 * as the scalar loop leaves them.
 *
 * state     rows x 4: Re c1, Im c1, Re c2, Im c2; updated in place on success
 * constants ch, s, p1, p2, u1_plus, u2_plus, u1_minus, u2_minus, lo, hi
 *           as trajectory._constants lays them out
 * uniforms  rows x (n * series) pre-drawn variates, one per measurement
 * c2_sq     out, rows x series: |c2|^2 after each series
 * n_plus    out, rows x series: each series' "+" count
 * excursion out: the offending p_plus when EXCURSION is returned
 */

#include <math.h>
#include <stdint.h>

enum { OK = 0, EXCURSION = 1, ZERO_NORM = 2 };
enum { LANES = 4 };

static int advance_row(double *state, const double *constants, int64_t n, int64_t series,
                       const double *uniforms, double *c2_sq, int64_t *n_plus,
                       double *excursion)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    const double u1_plus = constants[4], u2_plus = constants[5];
    const double u1_minus = constants[6], u2_minus = constants[7];
    const double lo = constants[8], hi = constants[9];
    double ar = state[0], ai = state[1], br = state[2], bi = state[3];

    for (int64_t m = 0; m < series; m++) {
        int64_t count = 0;
        for (int64_t j = 0; j < n; j++) {
            const double u = *uniforms++;
            /* rotate; x, y are the new (Re c1, Im c1) while ar, ai still
               hold the old ones that the new c2 needs */
            const double x = ch * ar + s * bi;
            const double y = ch * ai - s * br;
            br = ch * br + s * ai;
            bi = ch * bi - s * ar;
            const double p_plus = p1 * (x * x + y * y) + p2 * (br * br + bi * bi);
            if (u < p_plus) {
                if (p_plus > hi) {
                    *excursion = p_plus;
                    return EXCURSION;
                }
                count += 1;
                ar = x * u1_plus;
                ai = y * u1_plus;
                br *= u2_plus;
                bi *= u2_plus;
            } else {
                if (!(p_plus >= lo)) {
                    *excursion = p_plus;
                    return EXCURSION;
                }
                ar = x * u1_minus;
                ai = y * u1_minus;
                br *= u2_minus;
                bi *= u2_minus;
            }
            const double norm = sqrt((ar * ar + ai * ai) + (br * br + bi * bi));
            if (norm == 0.0)
                return ZERO_NORM;
            ar /= norm;
            ai /= norm;
            br /= norm;
            bi /= norm;
        }
        c2_sq[m] = br * br + bi * bi;
        n_plus[m] = count;
    }
    state[0] = ar;
    state[1] = ai;
    state[2] = br;
    state[3] = bi;
    return OK;
}

/* advance_row on LANES rows at once; returns 0 when some lane left
   [lo, hi] or hit a zero norm, and then leaves `state` as it was */
static int advance_lanes(double *state, const double *constants, int64_t n, int64_t series,
                         const double *uniforms, double *c2_sq, int64_t *n_plus)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    const double u1_plus = constants[4], u2_plus = constants[5];
    const double u1_minus = constants[6], u2_minus = constants[7];
    const double lo = constants[8], hi = constants[9];
    const int64_t stride = n * series;
    double ar[LANES], ai[LANES], br[LANES], bi[LANES];
    int64_t count[LANES];
    int bad = 0;

    for (int l = 0; l < LANES; l++) {
        ar[l] = state[4 * l];
        ai[l] = state[4 * l + 1];
        br[l] = state[4 * l + 2];
        bi[l] = state[4 * l + 3];
    }
    for (int64_t m = 0; m < series; m++) {
        for (int l = 0; l < LANES; l++)
            count[l] = 0;
        for (int64_t j = 0; j < n; j++) {
            const int64_t at = m * n + j;
            for (int l = 0; l < LANES; l++) {
                const double u = uniforms[l * stride + at];
                const double x = ch * ar[l] + s * bi[l];
                const double y = ch * ai[l] - s * br[l];
                br[l] = ch * br[l] + s * ai[l];
                bi[l] = ch * bi[l] - s * ar[l];
                const double p_plus = p1 * (x * x + y * y) + p2 * (br[l] * br[l] + bi[l] * bi[l]);
                /* every p_plus the scalar loop rejects, whichever way u
                   reads it; for u outside [0, 1) also some it accepts,
                   which the rerun then lets pass */
                bad |= !(p_plus >= lo && p_plus <= hi);
                const int plus = u < p_plus;
                const double f1 = plus ? u1_plus : u1_minus;
                const double f2 = plus ? u2_plus : u2_minus;
                count[l] += plus;
                ar[l] = x * f1;
                ai[l] = y * f1;
                br[l] *= f2;
                bi[l] *= f2;
                const double norm = sqrt((ar[l] * ar[l] + ai[l] * ai[l])
                                         + (br[l] * br[l] + bi[l] * bi[l]));
                bad |= norm == 0.0;
                ar[l] /= norm;
                ai[l] /= norm;
                br[l] /= norm;
                bi[l] /= norm;
            }
        }
        if (bad)
            return 0;
        for (int l = 0; l < LANES; l++) {
            c2_sq[l * series + m] = br[l] * br[l] + bi[l] * bi[l];
            n_plus[l * series + m] = count[l];
        }
    }
    for (int l = 0; l < LANES; l++) {
        state[4 * l] = ar[l];
        state[4 * l + 1] = ai[l];
        state[4 * l + 2] = br[l];
        state[4 * l + 3] = bi[l];
    }
    return 1;
}

int um_advance_rows(double *state, const double *constants, int64_t n, int64_t series,
                    int64_t rows, const double *uniforms, double *c2_sq, int64_t *n_plus,
                    double *excursion)
{
    const int64_t stride = n * series;
    int64_t row = 0;
    int status = OK;

    for (; row + LANES <= rows; row += LANES) {
        if (advance_lanes(state + 4 * row, constants, n, series, uniforms + row * stride,
                          c2_sq + row * series, n_plus + row * series))
            continue;
        for (int64_t k = row; k < row + LANES; k++) {
            status = advance_row(state + 4 * k, constants, n, series, uniforms + k * stride,
                                 c2_sq + k * series, n_plus + k * series, excursion);
            if (status != OK)
                return status;
        }
    }
    for (; row < rows; row++) {
        status = advance_row(state + 4 * row, constants, n, series, uniforms + row * stride,
                             c2_sq + row * series, n_plus + row * series, excursion);
        if (status != OK)
            return status;
    }
    return OK;
}
