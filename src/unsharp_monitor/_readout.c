/* The readout's per-row arithmetic between numpy's FFTs, compiled: the
 * numpy helpers of spectral (_peaks, _significant, _noise_floors,
 * _wiener_weights, the weighting, _truncated and _real), one pass over
 * each row where numpy makes about forty passes over the whole array.
 *
 * spectral.process_readouts keeps the FFTs, the twist and np.abs in numpy
 * on every route, and calls these entry points between them:
 *   um_weigh_rows  on the coefficients and their power |a_l|^2: each row's
 *                  main peak, its significance and the noise floor, and,
 *                  with the filter on, the Wiener weights and the weighted
 *                  coefficients;
 *   um_cut_rows    on numpy's |kept|^2 of those (the raw power, with the
 *                  filter off): each row's kept peak, and the truncation
 *                  above twice it, in place;
 *   um_real_rows   on numpy's inverse FFT: the x M, the real part, and the
 *                  check that the imaginary part is only rounding.
 *
 * Each line below is the numpy line's arithmetic with the same operands in
 * the same order, so with IEEE double arithmetic and no contraction of a
 * multiply and an add it gives numpy's doubles bit for bit (_kernel.py
 * builds every source with -ffp-contract=off and never -ffast-math).
 * numpy multiplies a complex array by a real weight or by M as a complex
 * by a complex, (re, im) x (w, 0) = (re*w - im*0, re*0 + im*w), and so
 * does this file: the products with 0 only decide the sign of a zero.  A
 * median is what np.median gives: the middle order statistic, or the mean
 * (a + b) / 2 of the middle pair, which any selection finds alike.  This
 * one is Hoare's FIND (C. A. R. Hoare, "Algorithm 65: Find", CACM 4, 321,
 * 1961) in N. Wirth's form, with a median-of-three pivot; its copy of the
 * values into the scratch buffer is its first partition.
 *
 * No entry point calls a function: every helper is inlined, and no loop is
 * a plain copy or fill that a compiler could make a memcpy or memset.
 *
 * An entry point declines, returning -1, where numpy would warn or raise,
 * or see a value that is not finite: on a non-finite value read; on an
 * overflow of a median's middle pair, of 3 x median or of signal + floor
 * (um_weigh_rows); on an overflow of the x M or an imaginary part above
 * 1e-9 of the row's largest real part, or of 1 (um_real_rows); and on a
 * selection that scans more than SELECT_BUDGET times its values, which
 * only an order built against the pivot makes.  What it wrote is then
 * unused, and um_cut_rows writes nothing of `kept` before it may decline:
 * spectral runs the numpy helpers from the same inputs instead, and they
 * warn or raise as they always have, once.
 *
 * rows x m arrays are C-contiguous, a complex as its (re, im) doubles;
 * m >= 2, and the searched range is bins 1..m/2.
 */

#include <math.h>
#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

/* spectral's _FLAT_TOL, _NOISE_FLOOR_REL and _RESIDUAL_REL */
#define FLAT_TOL 1e-15
#define NOISE_FLOOR_REL 1e-12
#define RESIDUAL_REL 1e-9
/* the most values a selection scans, per value it selects among */
#define SELECT_BUDGET 16

INLINE double middle_of(double a, double b, double c)
{
    if (a < b)
        return b < c ? b : (a < c ? c : a);
    return a < c ? a : (b < c ? c : b);
}

/* x, or 0 where keep is 0: a select that no compiler turns into a branch */
INLINE double keep_if(int keep, double x)
{
    union {
        double value;
        uint64_t bits;
    } v = {x};
    v.bits &= -(uint64_t)keep;
    return v.value;
}

/* np.median of the n >= 1 finite values at src, through `a`, n doubles of
   scratch; -1 where the selection runs past its budget */
INLINE int median_of(const double *src, int64_t n, double *a, double *median)
{
    const int64_t k = n / 2;
    int64_t lo = 0, hi = n - 1, front = 0, back = n, budget = SELECT_BUDGET * n;
    double x = middle_of(src[0], src[k], src[n - 1]);

    /* the values below x to the front, the others to the back: each value
       is written at both ends, and the end it belongs to moves on */
    for (int64_t i = 0; i < n; i++) {
        const double v = src[i];
        const int below = v < x;
        a[front] = v;
        a[back - 1] = v;
        front += below;
        back -= !below;
    }
    if (k < front)
        hi = front - 1;
    else
        lo = front;
    /* FIND on a[lo..hi], which holds the k-th smallest */
    while (lo < hi) {
        int64_t i = lo, j = hi;
        budget -= hi - lo + 1;
        if (budget < 0)
            return -1;
        x = middle_of(a[lo], a[lo + (hi - lo) / 2], a[hi]);
        do {
            while (a[i] < x)
                i++;
            while (x < a[j])
                j--;
            if (i <= j) {
                const double t = a[i];
                a[i++] = a[j];
                a[j--] = t;
            }
        } while (i <= j);
        if (j < k)
            lo = i;
        if (k < i)
            hi = j;
    }
    /* a[k] is the k-th smallest and a[0..k-1] hold the ones below it; the
       mean of one value divides it by 1 */
    if (n % 2) {
        *median = a[k];
        return 0;
    }
    double below = a[0];
    for (int64_t i = 1; i < k; i++)
        below = a[i] > below ? a[i] : below;
    *median = (below + a[k]) / 2.0;
    return 0;
}

/* _peaks of one row of power: the first argmax over bins 1..half, or 0
   where that range is flat; -1 on a value that is not finite */
INLINE int64_t main_peak(const double *p, int64_t half)
{
    double high = p[1], low = p[1];
    int64_t peak = 1;
    int bad = !isfinite(p[1]);

    for (int64_t l = 2; l <= half; l++) {
        const double v = p[l];
        bad |= !isfinite(v);
        if (v > high) {
            high = v;
            peak = l;
        }
        low = v < low ? v : low;
    }
    if (bad)
        return -1;
    return high - low <= FLAT_TOL ? 0 : peak;
}

/* index, significant and floors: rows values each, written; weights and
   kept: rows x m, written, or both NULL with the filter off; scratch:
   m / 2 doubles */
int64_t um_weigh_rows(const double *coefficients, const double *power, int64_t rows, int64_t m,
                      double *scratch, int64_t *index, uint8_t *significant, double *floors,
                      double *weights, double *kept)
{
    const int64_t half = m / 2, quarter = half / 4 > 1 ? half / 4 : 1;

    for (int64_t r = 0; r < rows; r++) {
        const double *c = coefficients + 2 * m * r, *p = power + m * r;
        double top = p[1], median, floor;
        int bad = !isfinite(p[0]);

        for (int64_t l = 1; l < m; l++) {
            bad |= !isfinite(p[l]);
            top = p[l] > top ? p[l] : top;
        }
        const int64_t peak = main_peak(p, half);
        if (bad || peak < 0 || median_of(p + 1, half, scratch, &median))
            return -1;
        /* _significant */
        const double bar = 3.0 * median;
        if (!isfinite(bar))
            return -1;
        index[r] = peak;
        significant[r] = peak > 0 && p[peak] >= bar;
        /* _noise_floors: the median of the top quartile of bins 1..half */
        if (median_of(p + 1 + half - quarter, quarter, scratch, &floor) || !isfinite(floor))
            return -1;
        floors[r] = floor;
        if (!weights)
            continue;
        /* _wiener_weights, and the weighting */
        double *w = weights + m * r, *k = kept + 2 * m * r;
        const double cutoff = NOISE_FLOOR_REL * top;
        const int passthrough = floor <= cutoff || top == 0.0;
        /* a row's floor is above 0 unless it passes through, so signal +
           floor is too, and the quotient numpy takes where signal > 0 is 0
           where it is not, the weight numpy takes there */
        if (passthrough) {
            for (int64_t l = 0; l < m; l++) {
                const double weight = p[l] > cutoff ? 1.0 : 0.0;
                w[l] = weight;
                k[2 * l] = c[2 * l] * weight - c[2 * l + 1] * 0.0;
                k[2 * l + 1] = c[2 * l] * 0.0 + c[2 * l + 1] * weight;
            }
        } else {
            for (int64_t l = 0; l < m; l++) {
                const double signal = p[l] - floor, total = signal + floor;
                const double weight = keep_if(signal > 0.0, signal / total);
                bad |= !isfinite(total);
                w[l] = weight;
                k[2 * l] = c[2 * l] * weight - c[2 * l + 1] * 0.0;
                k[2 * l + 1] = c[2 * l] * 0.0 + c[2 * l + 1] * weight;
            }
            if (bad)
                return -1;
        }
        /* weights[:, 0] = 1.0, and that bin weighted by it */
        w[0] = 1.0;
        k[0] = c[0] * 1.0 - c[1] * 0.0;
        k[1] = c[0] * 0.0 + c[1] * 1.0;
    }
    return 0;
}

/* index: rows values, written: the main peaks of kept_power (rows x m),
   which kept is cut at.  Returns the number of rows without one, uncut */
int64_t um_cut_rows(double *kept, const double *kept_power, int64_t rows, int64_t m,
                    int64_t *index)
{
    const int64_t half = m / 2;
    int64_t missing = 0;

    for (int64_t r = 0; r < rows; r++) {
        index[r] = main_peak(kept_power + m * r, half);
        if (index[r] < 0)
            return -1;
        missing += index[r] == 0;
    }
    for (int64_t r = 0; r < rows; r++) {
        const int64_t keep = 2 * index[r];
        double *k = kept + 2 * m * r;
        if (!keep)
            continue;
        /* _truncated: zero the bins strictly between 2 peak and m - 2 peak */
        for (int64_t l = 0; l < m; l++) {
            const int cut = l > keep && l < m - keep;
            k[2 * l] = cut ? 0.0 : k[2 * l];
            k[2 * l + 1] = cut ? 0.0 : k[2 * l + 1];
        }
    }
    return missing;
}

/* values: rows x m complex, numpy's inverse FFT; out: rows x m, written */
int64_t um_real_rows(const double *values, int64_t rows, int64_t m, double *out)
{
    const double scale = (double)m;

    for (int64_t r = 0; r < rows; r++) {
        const double *z = values + 2 * m * r;
        double *x = out + m * r, top = 0.0, worst = 0.0;
        int bad = 0;
        for (int64_t l = 0; l < m; l++) {
            const double re = z[2 * l] * scale - z[2 * l + 1] * 0.0;
            const double im = z[2 * l] * 0.0 + z[2 * l + 1] * scale;
            bad |= !isfinite(re) | !isfinite(im);
            x[l] = re;
            top = fabs(re) > top ? fabs(re) : top;
            worst = fabs(im) > worst ? fabs(im) : worst;
        }
        if (bad || worst > RESIDUAL_REL * (top > 1.0 ? top : 1.0))
            return -1;
    }
    return 0;
}
