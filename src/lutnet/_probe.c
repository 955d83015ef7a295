/* The compiled LUT reads of ``core``, operation for operation as numpy runs
 * them, so that both give the same bits:
 *  - probed_read is one LUT layer of one sample, its slope estimates
 *    included, ``core._probed_read_numpy``;
 *  - layer_outputs is every connection output of one LUT layer for a batch
 *    of rows, ``core._layer_outputs_numpy``.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reordered sum changes the last bits. The rules that numpy sets:
 *  - maximum and minimum against a bound return the bound on a tie and let a
 *    NaN input through, so numpy's second clamp of a probe point changes no
 *    bit and is left out; fmin turns a NaN position into the last segment;
 *  - a read is (1 - f) * t0 + f * t1, and a connection output w * x + read;
 *  - the k quotients of a connection are summed from 0.0 in sequence: numpy's
 *    gather puts the destination axis innermost, so it adds whole (n_out, n_in)
 *    slices one after the other. A 1x1 read (n_out = n_in = 1) leaves the probe
 *    axis contiguous, and numpy sums that pairwise, so the kernel declines it;
 *  - a pair whose clamped points do not lie apart gives quotient diff * 0.0,
 *    and the sum is divided by the number of the other pairs (at least 1).
 */
#include <math.h>
#include <stddef.h>

/* layer_outputs keeps a row's segment of every input on the stack */
#define MAX_ROW_INPUTS 4096

static double max_bound(double a, double b) { return (a > b || a != a) ? a : b; }

static double min_bound(double a, double b) { return (a < b || a != a) ? a : b; }

/* Clamps b into [i_min, i_max] and locates it on an r-entry table as
 * ``core.segment_coords`` does: the lower entry lo, capped at r - 2, and the
 * fraction frac past it. Returns the clamped b. */
static double locate(double b, double i_min, double i_max, double span, ptrdiff_t r,
                     ptrdiff_t *lo, double *frac)
{
    b = min_bound(max_bound(b, i_min), i_max);
    double pos = (b - i_min) / span * (double)(r - 1);
    double lo_f = fmin(floor(pos), (double)(r - 2));
    *lo = (ptrdiff_t)lo_f;
    *frac = pos - lo_f;
    return b;
}

/* lut is (n_out, n_in, r) in C order; input j reads table (d, j).
 * Writes lo0 (n_in) and, one after the other in out, frac0 (n_in), then read0
 * and slope (n_out, n_in) in C order.
 * Returns 0, or -1 (nothing written) when the read is 1x1. */
int probed_read(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *x, ptrdiff_t n_in,
                const double *offsets, ptrdiff_t k, double i_min, double i_max, double span,
                ptrdiff_t *lo0, double *out)
{
    double *frac0 = out, *read0 = out + n_in, *slope = out + n_in + n_out * n_in;
    if (n_out == 1 && n_in == 1)
        return -1;
    ptrdiff_t rows = 2 * k + 1;
    double pt[rows], frac[rows], reads[rows], den[k], quot[k];
    ptrdiff_t lo[rows];
    for (ptrdiff_t j = 0; j < n_in; j++) {
        for (ptrdiff_t p = 0; p < rows; p++) {
            double b = p == 0 ? x[j] : p <= k ? x[j] + offsets[p - 1] : x[j] - offsets[p - k - 1];
            pt[p] = locate(b, i_min, i_max, span, r, &lo[p], &frac[p]);
        }
        ptrdiff_t apart = 0;
        for (ptrdiff_t i = 0; i < k; i++) {
            den[i] = pt[1 + i] - pt[k + 1 + i];
            apart += den[i] > 0.0;
        }
        double count = (double)(apart > 0 ? apart : 1);
        lo0[j] = lo[0];
        frac0[j] = frac[0];
        for (ptrdiff_t d = 0; d < n_out; d++) {
            const double *t = lut + (d * n_in + j) * r;
            for (ptrdiff_t p = 0; p < rows; p++)
                reads[p] = (1.0 - frac[p]) * t[lo[p]] + frac[p] * t[lo[p] + 1];
            for (ptrdiff_t i = 0; i < k; i++) {
                double diff = reads[1 + i] - reads[k + 1 + i];
                quot[i] = den[i] > 0.0 ? diff / den[i] : diff * 0.0;
            }
            double s = 0.0;
            for (ptrdiff_t i = 0; i < k; i++)
                s += quot[i];
            read0[d * n_in + j] = reads[0];
            slope[d * n_in + j] = s / count;
        }
    }
    return 0;
}

/* lut is (n_out, n_in, r) and w (n_out, n_in) in C order. act holds the
 * rows as (n_rows, n_in) in C order. Writes out[d, q, s] = w[d, s] * act[q, s]
 * + the read of table (d, s) at act[q, s], an (n_out, n_rows, n_in) array in
 * C order, so that numpy sums each row of n_in outputs pairwise, as it sums a
 * single sample's.
 * Returns 0, or -1 (nothing written) when a row has more than MAX_ROW_INPUTS
 * inputs. */
int layer_outputs(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *w,
                  const double *act, ptrdiff_t n_rows, ptrdiff_t n_in,
                  double i_min, double i_max, double span, double *out)
{
    if (n_in > MAX_ROW_INPUTS)
        return -1;
    if (n_rows == 0 || n_in == 0)
        return 0;
    ptrdiff_t at[n_in];
    double frac[n_in];
    for (ptrdiff_t q = 0; q < n_rows; q++) {
        const double *x = act + q * n_in;
        for (ptrdiff_t s = 0; s < n_in; s++) {
            ptrdiff_t lo;
            locate(x[s], i_min, i_max, span, r, &lo, &frac[s]);
            at[s] = s * r + lo;
        }
        for (ptrdiff_t d = 0; d < n_out; d++) {
            const double *t = lut + d * n_in * r, *wd = w + d * n_in;
            double *o = out + (d * n_rows + q) * n_in;
            for (ptrdiff_t s = 0; s < n_in; s++) {
                double f = frac[s];
                o[s] = wd[s] * x[s] + ((1.0 - f) * t[at[s]] + f * t[at[s] + 1]);
            }
        }
    }
    return 0;
}
