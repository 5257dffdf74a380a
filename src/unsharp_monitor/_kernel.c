/* The measurement kernel of trajectory._python_advance, compiled.
 *
 * Each line below is the Python loop's line with the same operands in the
 * same order, so with IEEE double arithmetic and no contraction of a
 * multiply and an add into one fused operation it gives the same doubles
 * bit for bit.  Build with -O2 -ffp-contract=off and never with
 * -ffast-math (which would let the compiler regroup sums); _kernel.py
 * passes exactly those flags.
 *
 * state     Re c1, Im c1, Re c2, Im c2; updated in place on success
 * constants ch, s, p1, p2, u1_plus, u2_plus, u1_minus, u2_minus, lo, hi
 *           as trajectory._constants lays them out
 * uniforms  n * series pre-drawn variates, one per measurement
 * c2_sq     out: |c2|^2 after each series
 * n_plus    out: each series' "+" count
 * excursion out: the offending p_plus when EXCURSION is returned
 */

#include <math.h>
#include <stdint.h>

enum { OK = 0, EXCURSION = 1, ZERO_NORM = 2 };

int um_advance(double *state, const double *constants, int64_t n, int64_t series,
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
