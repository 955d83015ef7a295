/* The compiled kernels of ``core`` and ``regularize``, operation for operation
 * as numpy runs them, so that both give the same bits:
 *  - probed_read is one layer of one sample: the read of its tables with
 *    their slope estimates, ``core._probed_read_numpy``, and its connection
 *    outputs w * x + read, or w * x for a layer with no tables (LW), which
 *    numpy's forward sum, bias add and tanh then take (``core.Workspace``);
 *  - layer_outputs is every connection output of one LUT layer for a batch
 *    of rows, ``core._layer_outputs_numpy``;
 *  - update_args and update_apply are a training iteration's backprop and
 *    update steps, ``train._backprop_numpy`` and ``train._updates_numpy``, for
 *    both kinds of net: the output error and every layer's deltas, the linear
 *    updates with their gain and decay, and for NLW the LUT rows' gain-shaped
 *    steps, the gate draw and the table writes (the LUT entry steps, the visit
 *    decay-and-bump and the gated decay of the touched entries). An LW net has
 *    no LUT rows, and its slope, rates, luts and visits are NULL. np.expm1 is
 *    left to numpy, which runs it on the arguments update_args writes, before
 *    update_apply;
 *  - diffusion_gaps and diffuse_rows are the gated diffusion of a training
 *    iteration, ``regularize._diffuse_rows_numpy``. tanh is left to numpy,
 *    whose bits differ from libm's and follow its CPU dispatch: the caller
 *    runs np.tanh on the gaps between the two calls.
 *
 * A training iteration binds each function's arrays once (``core.Workspace``)
 * into one struct per operation, so a call passes that struct and then what
 * changes per call. The bind checks what it fixes: the dtypes, shapes and
 * lengths, the layer widths against the buffers and the range of every index
 * map, which the workspace keeps read-only. A function checks only the
 * indices that change per call, and declines, writing nothing, when one
 * fails. The block between the ``cffi cdef`` markers below is cffi's cdef,
 * as ``kernel.py`` reads it, so it holds plain declarations only.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused multiply-add
 * or a reordered sum changes the last bits. The rules that numpy sets:
 *  - maximum and minimum against a bound return the bound on a tie and let a
 *    NaN input through, so numpy's second clamp of a probe point changes no
 *    bit and is left out; fmin turns a NaN position into the last segment;
 *  - a read is (1 - f) * t0 + f * t1, and a connection output (w * x) + read,
 *    numpy's w * x followed by += read;
 *  - numpy sums a reduction over a strided axis from 0.0 in sequence, and one
 *    over a contiguous axis pairwise (pairwise_sum), adding the result to 0.0;
 *  - the k quotients of a connection are summed in sequence: numpy's gather
 *    puts the destination axis innermost, so it adds whole (n_out, n_in)
 *    slices one after the other. A 1x1 read (n_out = n_in = 1) leaves the
 *    probe axis contiguous, and its quotients are summed pairwise;
 *  - a pair whose clamped points do not lie apart gives quotient diff * 0.0,
 *    and the sum is divided by the number of the other pairs (at least 1);
 *  - backprop's sum over a layer's outputs adds the rows of the (n_out, n_in)
 *    products one after the other: numpy reduces a C-ordered block over its
 *    rows so. A layer with one input leaves that column contiguous, and its
 *    n_out products are summed pairwise;
 *  - the updates and the diffusion are elementwise, so each entry's chain
 *    of operations is numpy's, pass by pass. The updates rewrite a row in one
 *    sweep in place; the diffusion writes a row's pair values into an O(r)
 *    scratch, then the row from them.
 *
 * update_apply and diffuse_rows also report whether they wrote a value that is
 * not finite, so that ``Trainer.run`` scans the network at a log point only when
 * one may be there: each adds x - x of every value x it writes to a sum, which
 * stays 0 while they are all finite and is NaN from the first that is not, and
 * sets check_due[0] to 1 when the sum is not 0. That is a subtraction and an
 * addition per value, with no branch and no bit of a written value changed,
 * and a few sums side by side keep the chain of additions short. A call that
 * declines writes nothing and sets nothing, and no call clears the flag.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* cffi cdef begins */

/* The arguments of the bound calls, each field named after the array or size of
 * ``core.Workspace`` that a bind fills it with. */
struct read_call {              /* probed_read's: one layer of one sample */
    const double *lut, *w, *x, *offsets;
    ptrdiff_t n_out, n_in, r, k;
    double i_min, i_max, span;
    ptrdiff_t *lo;
    double *frac, *read, *slope, *outputs;
};
struct updates_call {           /* update_args' and update_apply's */
    double *params, *luts, *visits, *step, *grad, *arg, *err, *delta;
    ptrdiff_t *hit, *check_due;
    const double *rates, *frac, *read, *slope, *y, *target, *inputs, *gate_u;
    const ptrdiff_t *param_dst, *param_src, *conn_dst, *src, *lo, *sizes;
    ptrdiff_t n_params, n_rows, r, n_src, n_layers, n_nodes, n_inputs, n_gates;
    double mu, s_a, s_b, zeta, r_c, v_min;
};
struct diffusion_call {         /* diffusion_gaps' and diffuse_rows' */
    double *luts, *visits, *pairs;     /* pairs: diffuse_rows' scratch, 4 * (r - 1) */
    ptrdiff_t *check_due;
    const ptrdiff_t *hit;
    ptrdiff_t n_rows, r;
    double r_a, r_b, v_min;
};

void probed_read(const struct read_call *call);
int layer_outputs(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *w,
                  const double *act, ptrdiff_t n_rows, ptrdiff_t n_in,
                  double i_min, double i_max, double span, double *out);
void update_args(const struct updates_call *call);
ptrdiff_t update_apply(const struct updates_call *call, ptrdiff_t row, double scale,
                       double new_scale);
int diffusion_gaps(const struct diffusion_call *call, ptrdiff_t n_hit, double *gap);
int diffuse_rows(const struct diffusion_call *call, ptrdiff_t n_hit, const double *tanh_gap,
                 double scale);

/* cffi cdef ends */

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

/* numpy's pairwise summation of n doubles: below 8 in sequence; up to 128, eight
 * partial sums stepped 8 apart, combined in pairs, then the rest in sequence;
 * above 128, two halves, the first a multiple of 8 */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* probed_read prefetches the entries that destination d + AHEAD reads while it
 * reads destination d's: the tables of one input lie n_in * r entries apart,
 * too far for the hardware prefetcher to follow at a large r */
#define AHEAD 2

/* Prefetches every cache line of the entries from first to last, inclusive. */
static void prefetch_entries(const double *first, const double *last)
{
    for (uintptr_t at = (uintptr_t)first & ~(uintptr_t)63; at <= (uintptr_t)last; at += 64)
        __builtin_prefetch((const void *)at);
}

/* w is (n_out, n_in) and lut (n_out, n_in, r) in C order; input j reads
 * table (d, j). Writes lo and frac (n_in), then read, slope and the connection
 * outputs w[d, j] * x[j] + read[d, j] (n_out, n_in) in C order, each through
 * its own pointer, so that a caller can point them into its flat buffers. The
 * quotients of a connection are summed in numpy's order: each joins the sum as
 * soon as it is formed, or, in a 1x1 layer, all k are summed pairwise. A layer
 * with no tables (LW: lut, lo, frac, read and slope NULL) writes the outputs
 * w[d, j] * x[j] alone. While it reads table (d, j) it prefetches the lines of
 * table (d + AHEAD, j) from the lowest to the highest segment its probes read,
 * which changes no read and no bit. */
void probed_read(const struct read_call *call)
{
    ptrdiff_t n_out = call->n_out, n_in = call->n_in, r = call->r, k = call->k;
    const double *w = call->w, *x = call->x, *offsets = call->offsets;
    double *outputs = call->outputs;
    if (!call->lut) {
        for (ptrdiff_t d = 0; d < n_out; d++)
            for (ptrdiff_t j = 0; j < n_in; j++)
                outputs[d * n_in + j] = w[d * n_in + j] * x[j];
        return;
    }
    ptrdiff_t rows = 2 * k + 1;
    double pt[rows], frac[rows], reads[rows], den[k], quot[k];
    ptrdiff_t lo[rows];
    int pairwise = n_out == 1 && n_in == 1;
    for (ptrdiff_t j = 0; j < n_in; j++) {
        for (ptrdiff_t p = 0; p < rows; p++) {
            double b = p == 0 ? x[j] : p <= k ? x[j] + offsets[p - 1] : x[j] - offsets[p - k - 1];
            pt[p] = locate(b, call->i_min, call->i_max, call->span, r, &lo[p], &frac[p]);
        }
        ptrdiff_t apart = 0;
        for (ptrdiff_t i = 0; i < k; i++) {
            den[i] = pt[1 + i] - pt[k + 1 + i];
            apart += den[i] > 0.0;
        }
        double count = (double)(apart > 0 ? apart : 1);
        call->lo[j] = lo[0];
        call->frac[j] = frac[0];
        ptrdiff_t first = lo[0], last = lo[0];
        for (ptrdiff_t p = 1; p < rows; p++) {
            first = lo[p] < first ? lo[p] : first;
            last = lo[p] > last ? lo[p] : last;
        }
        for (ptrdiff_t d = 0; d < n_out; d++) {
            const double *t = call->lut + (d * n_in + j) * r;
            if (d + AHEAD < n_out)
                prefetch_entries(t + AHEAD * n_in * r + first, t + AHEAD * n_in * r + last + 1);
            for (ptrdiff_t p = 0; p < rows; p++)
                reads[p] = (1.0 - frac[p]) * t[lo[p]] + frac[p] * t[lo[p] + 1];
            double s = 0.0;
            for (ptrdiff_t i = 0; i < k; i++) {
                double diff = reads[1 + i] - reads[k + 1 + i];
                double q = den[i] > 0.0 ? diff / den[i] : diff * 0.0;
                if (pairwise)
                    quot[i] = q;
                else
                    s += q;
            }
            if (pairwise)
                s += pairwise_sum(quot, k);
            ptrdiff_t at = d * n_in + j;
            call->read[at] = reads[0];
            call->slope[at] = s / count;
            outputs[at] = w[at] * x[j] + reads[0];
        }
    }
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


/* 1 when the hit rows are strictly increasing and inside [0, n_rows), else 0:
 * numpy's fancy index takes any others, and a row diffused twice in place
 * would differ from numpy's one assignment. */
static int rows_in_order(const ptrdiff_t *hit, ptrdiff_t n_hit, ptrdiff_t n_rows)
{
    for (ptrdiff_t h = 0; h < n_hit; h++)
        if (hit[h] < (h ? hit[h - 1] + 1 : 0) || hit[h] >= n_rows)
            return 0;
    return 1;
}

/* luts is (n_rows, r) in C order. Writes r_a * (t[j + 1] - t[j]) of each hit
 * row t into gap, (n_hit, r - 1) in C order: the argument of numpy's tanh.
 * Returns 0, or -1 (nothing written) when the rows are not in order. */
int diffusion_gaps(const struct diffusion_call *call, ptrdiff_t n_hit, double *gap)
{
    ptrdiff_t r = call->r;
    if (!rows_in_order(call->hit, n_hit, call->n_rows))
        return -1;
    for (ptrdiff_t h = 0; h < n_hit; h++) {
        const double *t = call->luts + call->hit[h] * r;
        double *g = gap + h * (r - 1);
        for (ptrdiff_t j = 0; j < r - 1; j++)
            g[j] = call->r_a * (t[j + 1] - t[j]);
    }
    return 0;
}

/* Two lanes of doubles: GCC's vector types, SSE2 on every x86-64, where one
 * divpd divides both lanes at about the cost of one scalar division. Each
 * lane is IEEE double arithmetic, operation for operation as the scalar code. */
typedef double lanes __attribute__((vector_size(16)));
typedef long long lane_mask __attribute__((vector_size(16)));

static lanes splat(double x) { return (lanes){x, x}; }

/* entries p[0] and p[1], which need not be 16-byte aligned */
static lanes load2(const double *p)
{
    lanes x;
    memcpy(&x, p, sizeof x);
    return x;
}

static void store2(double *p, lanes x) { memcpy(p, &x, sizeof x); }

/* max_bound(a, v_floor) lane by lane, for a positive v_floor (v_min): SSE2's
 * maxpd(v_floor, a) returns a unless v_floor > a, so a NaN a is kept, and an
 * a equal to v_floor has its bits. */
static lanes floor2(lanes a, lanes v_floor)
{
#ifdef __SSE2__
    return __builtin_ia32_maxpd(v_floor, a);
#else
    lane_mask keep = (lane_mask)(a > v_floor) | (lane_mask)(a != a);
    return (lanes)(((lane_mask)a & keep) | ((lane_mask)v_floor & ~keep));
#endif
}

/* The new values of two pairs of a row, one per lane: entries a and b, stored
 * visits va and vb at scale, and the LUT transfer s. See diffuse_row. */
struct pair_values { lanes low, high, v_low, v_up; };

static struct pair_values pair_values(const struct diffusion_call *call, lanes a, lanes b,
                                      lanes va, lanes vb, lanes s, double scale)
{
    const lanes half = splat(0.5), rb = splat(call->r_b), v_floor = splat(call->v_min);
    lanes v_lo = floor2(va * splat(scale), v_floor), v_hi = floor2(vb * splat(scale), v_floor);
    lanes il = v_lo / (v_lo + rb * v_hi), ih = v_hi / (v_hi + rb * v_lo);
    lanes m = (a + b) * half, vm = (v_lo + v_hi) * half, vs = (v_hi - v_lo) * half;
    return (struct pair_values){m - s * il, m + s * ih, vm - vs * il, vm + vs * ih};
}

/* Diffuses one row in place: LUT row t, visit row v stored at scale, and the
 * tanh of its scaled gaps g, NULL at r_a = 0. Pass 1 writes each pair's low
 * and high values into the four (r - 1)-entry blocks of the call's pairs, two
 * adjacent pairs to a register; pass 2 writes entry j, the average of pair
 * j - 1's high value and pair j's low value (an end entry keeps its one
 * pair's value), the visit entry floored at v_min and stored times 1 / scale.
 * An odd last pair or entry runs in both lanes, and lane 0 is stored. Returns
 * the sum of x - x over every entry x it wrote, per lane. */
static lanes diffuse_row(const struct diffusion_call *call, double *t, double *v,
                         const double *g, double scale)
{
    ptrdiff_t n = call->r - 1, j;
    double *low = call->pairs, *high = low + n, *v_low = high + n, *v_up = v_low + n;
    const lanes half = splat(0.5), v_floor = splat(call->v_min), to_stored = splat(1.0 / scale);
    const lanes to_transfer = splat(g ? 1.0 / (2.0 * call->r_a) : 0.5);
    struct pair_values p;
    for (j = 0; j + 1 < n; j += 2) {
        lanes a = load2(t + j), b = load2(t + j + 1);
        p = pair_values(call, a, b, load2(v + j), load2(v + j + 1),
                        (g ? load2(g + j) : b - a) * to_transfer, scale);
        store2(low + j, p.low);
        store2(high + j, p.high);
        store2(v_low + j, p.v_low);
        store2(v_up + j, p.v_up);
    }
    if (j < n) {
        lanes a = splat(t[j]), b = splat(t[j + 1]);
        p = pair_values(call, a, b, splat(v[j]), splat(v[j + 1]),
                        (g ? splat(g[j]) : b - a) * to_transfer, scale);
        low[j] = p.low[0];
        high[j] = p.high[0];
        v_low[j] = p.v_low[0];
        v_up[j] = p.v_up[0];
    }
    lanes tt = {low[0], high[n - 1]};
    lanes vv = floor2((lanes){v_low[0], v_up[n - 1]}, v_floor) * to_stored;
    t[0] = tt[0];
    t[n] = tt[1];
    v[0] = vv[0];
    v[n] = vv[1];
    lanes written = (tt - tt) + (vv - vv);
    for (j = 1; j + 1 < n; j += 2) {
        tt = (load2(low + j) + load2(high + j - 1)) * half;
        vv = floor2((load2(v_low + j) + load2(v_up + j - 1)) * half, v_floor) * to_stored;
        store2(t + j, tt);
        store2(v + j, vv);
        written += (tt - tt) + (vv - vv);
    }
    if (j < n) {
        tt = (splat(low[j]) + splat(high[j - 1])) * half;
        vv = floor2((splat(v_low[j]) + splat(v_up[j - 1])) * half, v_floor) * to_stored;
        t[j] = tt[0];
        v[j] = vv[0];
        written += (tt - tt) + (vv - vv);
    }
    return written;
}

/* luts and visits are (n_rows, r) in C order, visits stored at scale. Diffuses
 * each hit row of both in place, one row at a time (diffuse_row), as
 * ``_diffuse_rows_numpy``: pair j of a row settles its visit entries into
 * v_lo and v_hi, takes the balance shares il = v_lo / (v_lo + r_b * v_hi) and
 * ih = v_hi / (v_hi + r_b * v_lo), its mean m and its transfer s, which is
 * tanh_gap[j] * (1 / (2 r_a)) for a LUT row, or the half-gap when tanh_gap is
 * NULL (r_a = 0) and for a visit row, and gives m - s * il and m + s * ih.
 * tanh_gap holds the hit rows' gaps in order, (n_hit, r - 1). Sets
 * check_due[0] to 1 when an entry it wrote is not finite.
 * Returns 0, or -1 (nothing written) when the rows are not in order. */
int diffuse_rows(const struct diffusion_call *call, ptrdiff_t n_hit, const double *tanh_gap,
                 double scale)
{
    ptrdiff_t r = call->r;
    const ptrdiff_t *hit = call->hit;
    if (!rows_in_order(hit, n_hit, call->n_rows))
        return -1;
    lanes written = {0.0, 0.0};
    for (ptrdiff_t h = 0; h < n_hit; h++)
        written += diffuse_row(call, call->luts + hit[h] * r, call->visits + hit[h] * r,
                               tanh_gap ? tanh_gap + h * (r - 1) : NULL, scale);
    if (written[0] != 0.0 || written[1] != 0.0)
        *call->check_due = 1;
    return 0;
}

/* The update steps of a training iteration, in two calls around numpy's
 * np.expm1, in place of ``train._updates_numpy``. Entry i < n_params of the
 * flat steps runs from input param_src[i] to node param_dst[i]; entry
 * n_params + c is LUT row c, which feeds node conn_dst[c]. */

/* The gain of ``regularize._gain_decay`` from its expm1 e: the raw step g at
 * s_a = 0 or where s_a * w is 0, else e / (s_a * w). */
static double gain(double w, double g, double e, double s_a)
{
    if (s_a == 0.0)
        return g;
    double den = s_a * w;
    return den == 0.0 ? g : e / den;
}

/* Writes err = y - target (n_out) and the deltas (n_nodes), as
 * ``train._backprop_numpy``: the output deltas err * (1 - y * y), then from the
 * last layer down the deltas of each layer's inputs, back[j] * (1 - a[j] * a[j]),
 * where back[j] is the sum over k of delta[k] * (w[k, j] + slope[k, j]), or of
 * delta[k] * w[k, j] where slope is NULL (LW), taken from 0.0 row after row, as
 * numpy reduces a C-ordered (n_out, n_in) block over its rows, or pairwise where
 * n_in is 1, through step, which update_args writes only afterwards; a is the
 * layer's slice of inputs. Layer after layer, a layer's w is its (n_out, n_in)
 * block of params (its biases follow), its slopes its block of slope and its
 * inputs its slice of inputs. */
static void backprop(const struct updates_call *call)
{
    const ptrdiff_t *sizes = call->sizes;
    const double *y = call->y;
    double *delta = call->delta;
    ptrdiff_t n_layers = call->n_layers, n_out = sizes[n_layers], d = call->n_nodes - n_out;
    ptrdiff_t p = call->n_params, c = call->n_rows, s = call->n_inputs - n_layers;
    for (ptrdiff_t k = 0; k < n_out; k++) {
        call->err[k] = y[k] - call->target[k];
        delta[d + k] = call->err[k] * (1.0 - y[k] * y[k]);
    }
    for (ptrdiff_t li = n_layers - 1; li > 0; li--) {
        ptrdiff_t n_in = sizes[li];
        n_out = sizes[li + 1];
        p -= (n_in + 1) * n_out;
        c -= n_in * n_out;
        s -= n_in;
        const double *w = call->params + p, *a = call->inputs + s, *dk = delta + d;
        const double *sl = call->slope ? call->slope + c : NULL;
        double *back = delta + d - n_in;
        for (ptrdiff_t j = 0; j < n_in; j++)
            back[j] = 0.0;
        if (n_in == 1) {
            double *column = call->step;
            for (ptrdiff_t k = 0; k < n_out; k++)
                column[k] = dk[k] * (sl ? w[k] + sl[k] : w[k]);
            back[0] += pairwise_sum(column, n_out);
        } else if (sl) {
            for (ptrdiff_t k = 0; k < n_out; k++)
                for (ptrdiff_t j = 0; j < n_in; j++)
                    back[j] += dk[k] * (w[k * n_in + j] + sl[k * n_in + j]);
        } else {
            for (ptrdiff_t k = 0; k < n_out; k++)
                for (ptrdiff_t j = 0; j < n_in; j++)
                    back[j] += dk[k] * w[k * n_in + j];
        }
        for (ptrdiff_t j = 0; j < n_in; j++)
            back[j] *= 1.0 - a[j] * a[j];
        d -= n_in;
    }
}

/* Writes err and the deltas (backprop), then step = delta * mu (n_nodes), each
 * parameter's raw step step[param_dst[i]] * inputs[param_src[i]] and each LUT
 * row's step[conn_dst[c]] into grad (n_params + n_rows), and, unless s_a is 0,
 * the argument of numpy's expm1, (s_a * w) * grad clamped into [-50, 50], into
 * arg, with w the parameter or the row's read. The bind has checked the widths
 * and the maps. */
void update_args(const struct updates_call *call)
{
    ptrdiff_t n_params = call->n_params, n_rows = call->n_rows, n_nodes = call->n_nodes;
    const ptrdiff_t *param_dst = call->param_dst, *param_src = call->param_src;
    const ptrdiff_t *conn_dst = call->conn_dst;
    double *step = call->step, *grad = call->grad;
    backprop(call);
    for (ptrdiff_t d = 0; d < n_nodes; d++)
        step[d] = call->delta[d] * call->mu;
    for (ptrdiff_t i = 0; i < n_params; i++)
        grad[i] = step[param_dst[i]] * call->inputs[param_src[i]];
    for (ptrdiff_t c = 0; c < n_rows; c++)
        grad[n_params + c] = step[conn_dst[c]];
    if (call->s_a != 0.0)
        for (ptrdiff_t i = 0; i < n_params + n_rows; i++) {
            double w = i < n_params ? call->params[i] : call->read[i - n_params];
            call->arg[i] = min_bound(max_bound((call->s_a * w) * grad[i], -50.0), 50.0);
        }
}

/* Steps params[i] by its gain times its rate (its gain alone where rates is
 * NULL, LW), decays it by shrink, and returns its new value. */
static double step_param(double *params, const double *grad, const double *arg,
                         const double *rates, ptrdiff_t i, double s_a, double shrink)
{
    double dw = gain(params[i], grad[i], arg[i], s_a);
    double p = (params[i] - (rates ? dw * rates[i] : dw)) * shrink;
    params[i] = p;
    return p;
}

/* Finishes the updates from update_args' grad and the expm1 of its arg (unused
 * at s_a = 0). Each parameter takes its gain times its rate (its gain alone
 * where rates is NULL, LW), then decays by 1 - s_b. LUT row c's step is -gain;
 * the row is gated when zeta > u[c], u being row ``row`` of the (n_gates,
 * n_rows) gate uniforms, and the gated rows go to hit in order. luts and visits
 * are (n_rows, r) in C order, visits stored at scale; row c reads source src[c]
 * (the bind has checked that it indexes lo) at segment lo[src[c]], fraction
 * frac[src[c]]. Its two entries bracketing the segment take the step split by
 * their shares (1 - f, f) over 2f^2 - 2f + 1; their visit entries settle, take
 * the bump 1 + r_c * share * (1 - v), decay by 1 - r_c, are floored at v_min,
 * bumped and stored at new_scale; and on a gated row each of them whose share
 * is above 0 decays by 1 - s_b. Sets check_due[0] to 1 when a parameter,
 * LUT entry or visit entry it wrote is not finite.
 * Returns the number of gated rows, or -1 (nothing written) when row is not a
 * row of the gates or an lo, which the forward pass rewrites each iteration,
 * lies outside [0, r - 2]. */
ptrdiff_t update_apply(const struct updates_call *call, ptrdiff_t row, double scale,
                       double new_scale)
{
    ptrdiff_t n_params = call->n_params, n_rows = call->n_rows, r = call->r, n_src = call->n_src;
    const ptrdiff_t *src = call->src, *lo = call->lo;
    const double *grad = call->grad, *arg = call->arg;
    double *params = call->params, *luts = call->luts, *visits = call->visits;
    if (row < 0 || row >= call->n_gates)
        return -1;
    for (ptrdiff_t j = 0; j < n_src; j++)
        if (lo[j] < 0 || lo[j] > r - 2)
            return -1;
    double s_a = call->s_a, r_c = call->r_c, v_min = call->v_min;
    double keep = 1.0 - r_c, shrink = 1.0 - call->s_b;
    const double *rates = call->rates;
    /* the sums of x - x over the values x written, 0 while all are finite and NaN
     * from the first that is not: the parameters go to two, which halves the
     * chain of additions, and each LUT row adds its own sum to the first */
    double written = 0.0, written_odd = 0.0;
    ptrdiff_t i = 0;
    for (; i + 1 < n_params; i += 2) {
        double p = step_param(params, grad, arg, rates, i, s_a, shrink);
        double p_odd = step_param(params, grad, arg, rates, i + 1, s_a, shrink);
        written += p - p;
        written_odd += p_odd - p_odd;
    }
    if (i < n_params) {
        double p = step_param(params, grad, arg, rates, i, s_a, shrink);
        written += p - p;
    }
    const double *u = call->gate_u + row * n_rows;
    ptrdiff_t n_hit = 0;
    for (ptrdiff_t c = 0; c < n_rows; c++) {
        double step = -gain(call->read[c], grad[n_params + c], arg[n_params + c], s_a);
        int gated = call->zeta > u[c];
        if (gated)
            call->hit[n_hit++] = c;
        double f = call->frac[src[c]];
        double share[2] = {1.0 - f, f};
        double den = 2.0 * f * f - 2.0 * f + 1.0;
        ptrdiff_t at = c * r + lo[src[c]];
        double row_written = 0.0;
        for (int e = 0; e < 2; e++) {
            double pre = max_bound(visits[at + e] * scale, v_min);
            double bump = 1.0 + (r_c * share[e]) * (1.0 - pre);
            double v = max_bound(pre * keep, v_min) * bump / new_scale;
            double t = luts[at + e] + step * (share[e] / den);
            if (gated && share[e] > 0.0)
                t *= shrink;
            visits[at + e] = v;
            luts[at + e] = t;
            row_written += (t - t) + (v - v);
        }
        written += row_written;
    }
    if (written + written_odd != 0.0)
        *call->check_due = 1;
    return n_hit;
}
