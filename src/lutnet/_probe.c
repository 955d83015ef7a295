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
 *  - the k quotients of a connection are summed from 0.0 in sequence: numpy's
 *    gather puts the destination axis innermost, so it adds whole (n_out, n_in)
 *    slices one after the other. A 1x1 read (n_out = n_in = 1) leaves the probe
 *    axis contiguous, and numpy sums that pairwise, so ``bind_read`` binds no
 *    1x1 layer with a table (an LW one has no quotients, and binds);
 *  - a pair whose clamped points do not lie apart gives quotient diff * 0.0,
 *    and the sum is divided by the number of the other pairs (at least 1);
 *  - backprop's sum over a layer's outputs starts from 0.0 and adds the rows
 *    of the (n_out, n_in) products one after the other: numpy reduces a
 *    C-ordered block over its rows so. A layer with one input leaves that
 *    column contiguous, and numpy sums it pairwise, so a net with a layer
 *    after the first with one input and more than one output (the first
 *    layer's deltas are not needed) takes numpy's err and deltas
 *    (``Workspace.numpy_backprop``), and its call skips backprop
 *    (run_backprop 0);
 *  - the updates and the diffusion are elementwise, so each entry's chain
 *    of operations is numpy's, pass by pass, and a row is rewritten in one
 *    sweep in place.
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
    ptrdiff_t run_backprop;     /* 0: err and the deltas are numpy's, written before */
    double mu, s_a, s_b, zeta, r_c, v_min;
};
struct diffusion_call {         /* diffusion_gaps' and diffuse_rows' */
    double *luts, *visits;
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

/* w is (n_out, n_in) and lut (n_out, n_in, r) in C order; input j reads
 * table (d, j). Writes lo and frac (n_in), then read, slope and the connection
 * outputs w[d, j] * x[j] + read[d, j] (n_out, n_in) in C order, each through
 * its own pointer, so that a caller can point them into its flat buffers. Each
 * quotient of a connection joins its sum as soon as it is formed, in numpy's
 * order. A layer with no tables (LW: lut, lo, frac, read and slope NULL) writes
 * the outputs w[d, j] * x[j] alone. */
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
    double pt[rows], frac[rows], reads[rows], den[k];
    ptrdiff_t lo[rows];
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
        for (ptrdiff_t d = 0; d < n_out; d++) {
            const double *t = call->lut + (d * n_in + j) * r;
            for (ptrdiff_t p = 0; p < rows; p++)
                reads[p] = (1.0 - frac[p]) * t[lo[p]] + frac[p] * t[lo[p] + 1];
            double s = 0.0;
            for (ptrdiff_t i = 0; i < k; i++) {
                double diff = reads[1 + i] - reads[k + 1 + i];
                s += den[i] > 0.0 ? diff / den[i] : diff * 0.0;
            }
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

/* Diffuses row 0 (t0, v0, g0) in lane 0 and row 1 in lane 1, in place; see
 * diffuse_rows. Returns the sum of x - x over every LUT and visit entry x it
 * wrote, per lane: 0 where they are all finite, NaN otherwise. An odd row is
 * passed as both rows: the lanes then compute the same values and store them
 * to the same entries. Where both lanes'
 * settled visit pairs are equal and finite (so at least v_min, above 0), both
 * visit ratios are exactly 1: the two balance denominators are one 1 + r_b,
 * the LUT transfer s / den is taken once, and the visit transfer is +0.0,
 * which leaves vm's bits as they are. That path gives the same bits as the
 * other with three of its eight divisions; a NaN fails the equality. */
static lanes diffuse_two_rows(const struct diffusion_call *call, double *t0, double *t1,
                              double *v0, double *v1, const double *g0, const double *g1,
                              double scale)
{
    ptrdiff_t r = call->r;
    const lanes half = {0.5, 0.5}, one = {1.0, 1.0}, rb = {call->r_b, call->r_b};
    const lanes at = {scale, scale}, two_r_a = {2.0 * call->r_a, 2.0 * call->r_a};
    const lanes v_floor = {call->v_min, call->v_min}, huge = {HUGE_VAL, HUGE_VAL};
    const lanes den_even = one + rb;
    lanes v_lo = floor2((lanes){v0[0], v1[0]} * at, v_floor);
    lanes t_high = {0.0, 0.0}, v_high = {0.0, 0.0};     /* the high values of pair j - 1 */
    lanes written = {0.0, 0.0};
    for (ptrdiff_t j = 0; j < r - 1; j++) {
        lanes v_hi = floor2((lanes){v0[j + 1], v1[j + 1]} * at, v_floor);
        lanes a = {t0[j], t1[j]}, b = {t0[j + 1], t1[j + 1]};
        lanes m = (a + b) * half, s = g0 ? (lanes){g0[j], g1[j]} / two_r_a : (b - a) * half;
        lanes vm = (v_lo + v_hi) * half, vs = (v_hi - v_lo) * half, low, high, v_low, v_up;
        lane_mask even = (v_lo == v_hi) & (v_hi < huge);
        if (even[0] && even[1]) {
            lanes shift = s / den_even;
            low = m - shift;
            high = m + shift;
            v_low = v_up = vm;
        } else {
            lanes den_lo = one + rb * (v_hi / v_lo), den_hi = one + rb * (v_lo / v_hi);
            low = m - s / den_lo;
            high = m + s / den_hi;
            v_low = vm - vs / den_lo;
            v_up = vm + vs / den_hi;
        }
        lanes t = j ? (low + t_high) * half : low;
        lanes v = floor2(j ? (v_low + v_high) * half : v_low, v_floor) / at;
        t0[j] = t[0];
        t1[j] = t[1];
        v0[j] = v[0];
        v1[j] = v[1];
        written += (t - t) + (v - v);
        t_high = high;
        v_high = v_up;
        v_lo = v_hi;
    }
    lanes v = floor2(v_high, v_floor) / at;
    t0[r - 1] = t_high[0];
    t1[r - 1] = t_high[1];
    v0[r - 1] = v[0];
    v1[r - 1] = v[1];
    return written + ((t_high - t_high) + (v - v));
}

/* luts and visits are (n_rows, r) in C order, visits stored at scale. Diffuses
 * each hit row of both in place: pair j of a row settles its visit entries,
 * takes the balance denominators and the low and high values of
 * ``_diffuse_rows_numpy``, whose LUT transfer is tanh_gap[j] / (2 r_a), or
 * the half-gap when tanh_gap is NULL (r_a = 0). Entry j then averages pair
 * j - 1's high value with pair j's low value, and the visit entry is
 * floored at v_min and stored back at scale. Pair j reads entries j and j + 1
 * only, so entry j is written as soon as pair j is done. The rows go two at a
 * time, one per lane. Sets check_due[0] to 1 when an entry it wrote is not
 * finite.
 * Returns 0, or -1 (nothing written) when the rows are not in order. */
int diffuse_rows(const struct diffusion_call *call, ptrdiff_t n_hit, const double *tanh_gap,
                 double scale)
{
    ptrdiff_t r = call->r;
    const ptrdiff_t *hit = call->hit;
    double *luts = call->luts, *visits = call->visits;
    if (!rows_in_order(hit, n_hit, call->n_rows))
        return -1;
    lanes written = {0.0, 0.0};
    for (ptrdiff_t h = 0; h < n_hit; h += 2) {
        ptrdiff_t h1 = h + 1 < n_hit ? h + 1 : h;
        const double *g0 = tanh_gap ? tanh_gap + h * (r - 1) : NULL;
        const double *g1 = tanh_gap ? tanh_gap + h1 * (r - 1) : NULL;
        written += diffuse_two_rows(call, luts + hit[h] * r, luts + hit[h1] * r,
                                    visits + hit[h] * r, visits + hit[h1] * r, g0, g1, scale);
    }
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
 * numpy reduces a C-ordered (n_out, n_in) block over its rows, and a is the
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
        double *back = delta + d - n_in;
        for (ptrdiff_t j = 0; j < n_in; j++)
            back[j] = 0.0;
        if (call->slope) {
            const double *sl = call->slope + c;
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

/* Writes err and the deltas (backprop, unless run_backprop is 0 and they are
 * numpy's), then step = delta * mu (n_nodes), each
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
    if (call->run_backprop)
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
