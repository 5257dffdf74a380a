/* The measurement kernel of trajectory._python_advance, compiled.
 *
 * Each line below is the Python loop's line with the same operands in the
 * same order, so with IEEE double arithmetic and no contraction of a
 * multiply and an add into one fused operation it gives the same doubles
 * bit for bit.  Build with -O2 -ffp-contract=off and never with
 * -ffast-math (which would let the compiler regroup sums); _kernel.py
 * passes exactly those flags.
 *
 * A step is rotate, then scale by the outcome's factors, then divide by
 * the norm; each is written once below, on one state c = (Re c1, Im c1,
 * Re c2, Im c2).  um_advance_rows advances `rows` independent
 * trajectories, each from its own state and its own uniforms.  Every step
 * is one dependent chain of multiplies, a sqrt and four divisions, so one
 * trajectory leaves most of the core idle.  One loop, advance, therefore
 * runs `lanes` rows at once, interleaving their chains and taking each
 * outcome as a select of the two factors.  um_advance_rows calls it with
 * the constant LANES for each full group and with 1 for each row of the
 * tail, so the compiler builds one specialised copy of the loop per width.
 *
 * The kernel raises nothing.  A row stops where p_plus leaves [lo, hi] or
 * the norm is zero; um_advance_rows then returns the row, or for a group
 * of lanes the group's first row, with that row's state and the states of
 * the rows after it as they were.  trajectory._compiled_advance runs that
 * row and every row after it through the Python loop, which raises the
 * error or, for a p_plus that only a uniform outside [0, 1) lets pass,
 * advances them.
 *
 * state     rows x 4: Re c1, Im c1, Re c2, Im c2; updated in place
 * constants ch, s, p1, p2, u1_plus, u2_plus, u1_minus, u2_minus, lo, hi
 *           as trajectory._constants lays them out
 * uniforms  rows x (n * series) pre-drawn variates, one per measurement
 * c2_sq     out, rows x series: |c2|^2 after each series
 * n_plus    out, rows x series: each series' "+" count
 */

#include <math.h>
#include <stdint.h>

enum { LANES = 4 };

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

/* `lanes` rows, at most LANES; returns 0, leaving `state` as it was,
   where some lane stops */
static inline int advance(double *state, const double *constants, int64_t n, int64_t series,
                          const double *uniforms, double *c2_sq, int64_t *n_plus, int lanes)
{
    const double ch = constants[0], s = constants[1];
    const double p1 = constants[2], p2 = constants[3];
    const double u1_plus = constants[4], u2_plus = constants[5];
    const double u1_minus = constants[6], u2_minus = constants[7];
    const double lo = constants[8], hi = constants[9];
    const int64_t stride = n * series;
    double c[LANES][4];
    int64_t count[LANES];
    int bad = 0;

    for (int l = 0; l < lanes; l++)
        for (int k = 0; k < 4; k++)
            c[l][k] = state[4 * l + k];
    for (int64_t m = 0; m < series; m++) {
        for (int l = 0; l < lanes; l++)
            count[l] = 0;
        for (int64_t j = 0; j < n; j++) {
            const int64_t at = m * n + j;
            for (int l = 0; l < lanes; l++) {
                const double u = uniforms[l * stride + at];
                const double p_plus = rotate(c[l], ch, s, p1, p2);
                bad |= !(p_plus >= lo && p_plus <= hi);
                const int plus = u < p_plus;
                count[l] += plus;
                const double norm = scale(c[l], plus ? u1_plus : u1_minus,
                                          plus ? u2_plus : u2_minus);
                bad |= norm == 0.0;
                divide(c[l], norm);
            }
        }
        if (bad)
            return 0;
        for (int l = 0; l < lanes; l++) {
            c2_sq[l * series + m] = c[l][2] * c[l][2] + c[l][3] * c[l][3];
            n_plus[l * series + m] = count[l];
        }
    }
    for (int l = 0; l < lanes; l++)
        for (int k = 0; k < 4; k++)
            state[4 * l + k] = c[l][k];
    return 1;
}

int64_t um_advance_rows(double *state, const double *constants, int64_t n, int64_t series,
                        int64_t rows, const double *uniforms, double *c2_sq, int64_t *n_plus)
{
    const int64_t stride = n * series;
    int64_t row = 0;

    for (; row + LANES <= rows; row += LANES)
        if (!advance(state + 4 * row, constants, n, series, uniforms + row * stride,
                     c2_sq + row * series, n_plus + row * series, LANES))
            return row;
    for (; row < rows; row++)
        if (!advance(state + 4 * row, constants, n, series, uniforms + row * stride,
                     c2_sq + row * series, n_plus + row * series, 1))
            return row;
    return rows;
}
