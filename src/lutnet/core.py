"""Network structure and the forward pass.

A network is a stack of fully connected layers. Input nodes pass their
values through unchanged; every other node applies tanh to the sum of
its incoming connection outputs plus a bias connection that always sees
the constant input 1.

Connections come in two flavours. A plain linear connection multiplies
its input by a scalar weight. A LUT connection adds a piecewise-linear
interpolation over ``r_res`` equally spaced grid points to a linear
term, and drags along a visit table of the same length that records how
often each grid region has been traversed. Every visit entry decays by
the same factor each iteration, so the tables are stored divided by one
shared scale, ``Network.visit_scale``, and an iteration rewrites only
the entries it bumps or diffuses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernel
from .hyper import Hyperparameters, KIND_NLW, KINDS

# ---------------------------------------------------------------------------
# LUT grid and interpolation


def lut_grid_point(j: int, hp: Hyperparameters) -> float:
    """Location of grid point j, with points 0 and r_res-1 on the domain edges."""
    if not 0 <= j < hp.r_res:
        raise ValueError(f"grid index {j} outside [0, {hp.r_res})")
    return hp.i_min + j / (hp.r_res - 1) * hp.span


def lut_grid(hp: Hyperparameters) -> np.ndarray:
    """Every grid point, each computed as ``lut_grid_point`` computes it."""
    return hp.i_min + np.arange(hp.r_res) / (hp.r_res - 1) * hp.span


def grid_position(x, hp: Hyperparameters):
    """Continuous grid coordinate of x, clamped into [0, r_res - 1].

    Accepts scalars or arrays. Out-of-domain inputs are clamped to the
    domain edge first, so the result always addresses a valid segment.
    """
    x = np.asarray(x, dtype=float)
    pos = np.empty_like(x)
    np.maximum(x, hp.i_min, out=pos)
    np.minimum(pos, hp.i_max, out=pos)
    pos -= hp.i_min
    pos /= hp.span
    pos *= hp.r_res - 1
    return pos


def segment_coords(x, hp: Hyperparameters):
    """Lower grid index and fractional offset of x within its segment.

    The index is capped at r_res - 2 so the top edge maps to the last
    segment with fraction exactly 1; at most the two entries j and j+1
    are ever addressed. fmin also absorbs NaN positions into a valid
    index, so a diverged network produces NaN outputs (caught by the
    trainer) rather than an out-of-bounds table read.
    """
    pos = grid_position(x, hp)
    lo_f = np.empty_like(pos)
    np.floor(pos, out=lo_f)
    np.fmin(lo_f, hp.r_res - 2, out=lo_f)
    pos -= lo_f
    return lo_f.astype(np.intp), pos


_ENDS = np.array([[0], [1]])


def _segment_ends(lo, frac):
    """Indices of the two entries bracketing each segment, and their interpolation shares.

    Both results stack the low end over the high end, (2, *lo.shape):
    ``lo + [[0], [1]]`` and ``(1 - frac, frac)``. The update steps of a
    training iteration all address a LUT or visit table through them.
    """
    return lo + _ENDS, np.array((1.0 - frac, frac))


def _lut_read(lut: np.ndarray, cols, lo, frac):
    """Piecewise-linear read of a (n_out, n_in, r) LUT tensor.

    cols picks the source column of each input and broadcasts against
    lo/frac, which locate the segment of each input; the result has one
    read per destination row and input. This is the only place that
    blends the two entries bracketing a segment.
    """
    return (1.0 - frac) * lut[:, cols, lo] + frac * lut[:, cols, lo + 1]


def _probed_read(lut: np.ndarray, cols, x: np.ndarray, hp: Hyperparameters):
    """``_lut_read`` at x and the LUT part's slope estimate, from one gather.

    Reads the block [x; clamp(x + a); clamp(x - a)] over the k offsets a
    of ``hp.probe_offsets``. Returns lo, frac and the read of row 0, then
    the mean of the k symmetric difference quotients (n_out, n_in); a pair
    whose clamped points coincide is left out of the mean (zero if all are).
    Runs the compiled kernel (``lutnet.kernel``) when it loads and takes
    the arguments, else ``_probed_read_numpy``; both give the same bits.
    """
    kern = kernel.load()
    out = None if kern is None else kern.probed_read(lut, cols, x, hp)
    return _probed_read_numpy(lut, cols, x, hp) if out is None else out


def _probed_read_numpy(lut: np.ndarray, cols, x: np.ndarray, hp: Hyperparameters):
    """``_probed_read`` in numpy: the reference the kernel matches, and its fallback."""
    k = hp.probe_offsets.shape[0]
    block = np.empty((2 * k + 1, x.shape[0]))
    block[0] = x
    np.add(x, hp.probe_offsets[:, None], out=block[1:k + 1])
    np.subtract(x, hp.probe_offsets[:, None], out=block[k + 1:])
    np.maximum(block, hp.i_min, out=block)
    np.minimum(block, hp.i_max, out=block)
    lo, frac = segment_coords(block, hp)
    reads = _lut_read(lut, cols, lo, frac)                    # (n_out, 2k + 1, n_in)
    den = block[1:k + 1] - block[k + 1:]
    diff = reads[:, 1:k + 1] - reads[:, k + 1:]
    good = den > 0.0
    diff /= np.where(good, den, 1.0)
    diff *= good
    slope = diff.sum(axis=1) / np.maximum(good.sum(axis=0), 1)
    return lo[0], frac[0], reads[:, 0], slope


def _layer_outputs(lut: np.ndarray, cols, w: np.ndarray, act: np.ndarray,
                   hp: Hyperparameters) -> np.ndarray:
    """Every connection output of one LUT layer for a batch of rows (rows, n_in).

    out[d, q, s] = w[d, s] * act[q, s] + the read of table (d, cols[s]) at
    act[q, s], as one C-ordered (n_out, rows, n_in) array: each row of n_in
    outputs is contiguous, so numpy sums it pairwise, in the order it sums a
    single sample's (n_out, n_in) outputs, and a batch row equals
    ``forward_network`` bit for bit. Runs the compiled kernel
    (``lutnet.kernel``) when it loads and takes the arguments, else
    ``_layer_outputs_numpy``; both give the same bits.
    """
    kern = kernel.load()
    out = None if kern is None else kern.layer_outputs(lut, cols, w, act, hp)
    return _layer_outputs_numpy(lut, cols, w, act, hp) if out is None else out


def _layer_outputs_numpy(lut: np.ndarray, cols, w: np.ndarray, act: np.ndarray,
                         hp: Hyperparameters) -> np.ndarray:
    """``_layer_outputs`` in numpy: the reference the kernel matches, and its fallback."""
    lo, frac = segment_coords(act, hp)
    dst = np.arange(lut.shape[0])[:, None, None]
    out = np.multiply(w[:, None, :], act, out=np.empty((lut.shape[0], *act.shape)))
    # (n_out, rows, n_in) gathers in C order, unlike _lut_read's destination-innermost one
    low, high = lut[dst, cols, lo], lut[dst, cols, lo + 1]
    low *= 1.0 - frac           # (1 - frac) * t0 + frac * t1, as _lut_read blends
    high *= frac
    low += high
    out += low
    return out


def interpolate(values, x: float, hp: Hyperparameters) -> float:
    """Piecewise-linear read of a LUT at input x.

    Exact at grid points; x at the upper domain edge returns the last
    entry. Inputs outside the domain are clamped to the nearest edge.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (hp.r_res,):
        raise ValueError(f"expected {hp.r_res} LUT entries, got shape {values.shape}")
    lo, frac = segment_coords(float(x), hp)
    return float(_lut_read(values[None, None], 0, lo, frac)[0])


# ---------------------------------------------------------------------------
# Connections

@dataclass
class LutConnection:
    """Connection whose weight function is linear plus an interpolated LUT."""

    linear: float
    lut: np.ndarray
    visits: np.ndarray


# ---------------------------------------------------------------------------
# Network

@dataclass
class Layer:
    """Dense layer parameters, connection (dst, src) at matrix position [dst, src].

    ``w`` holds the scalar weight of LW connections or the linear part of
    LUT connections. ``lut`` and ``visits`` are (n_out, n_in, r_res) and
    present only in NLW networks; ``visits`` holds the stored entries,
    which ``Network.settled_visits`` turns into visit values. All four are
    views into the owning network's buffers: write into them, never
    rebind them (an augmented assignment such as ``lay.w *= 2`` writes in
    place). ``cols`` is the source-index row for addressing LUT tensors.
    """

    w: np.ndarray
    bias: np.ndarray
    lut: np.ndarray | None = None
    visits: np.ndarray | None = None
    cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.cols = np.arange(self.n_in)

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_in(self) -> int:
        return self.w.shape[1]


class UpdateMaps(NamedTuple):
    """Index maps that let one update pass cover every layer of a network.

    Number the nodes that layers feed (their deltas) layer after layer,
    and the inputs layers read likewise, followed by one constant-1 bias
    input per layer. Entry i of ``Network.params`` runs from input
    ``param_src[i]`` to node ``param_dst[i]``; LUT row c from input
    ``conn_src[c]`` to node ``conn_dst[c]``, and ``row_starts[c]`` is the
    flat index of its first entry. ``linear_rates`` scales each entry's
    linear update: nu on the linear part of a LUT connection, 1 on a bias
    (None for LW, where every rate is 1).
    """

    param_dst: np.ndarray
    param_src: np.ndarray
    conn_dst: np.ndarray
    conn_src: np.ndarray
    row_starts: np.ndarray | None
    linear_rates: np.ndarray | None


class Network:
    """Layered feedforward net; holds its hyperparameters, kind and parameters.

    The parameters live in three contiguous buffers. ``params`` holds
    each layer's weights (row-major) followed by its biases, layer after
    layer. For NLW, ``luts`` and ``visits`` are (connections, r_res)
    with one row per LUT connection in gate-draw order: layer, then
    destination, then source; for LW both are None. The layers' arrays
    are views into these buffers. A new network's parameters are zero.
    ``sizes`` must be two or more positive ints (no bool or float), ``kind`` in ``KINDS``.

    ``visits`` is stored divided by ``visit_scale`` S, a number in (0, 1]:
    an entry's visit value is ``max(visits * S, v_min)``, which
    ``settled_visits`` returns. The per-iteration decay of every entry is
    one multiplication of S; a training iteration writes only the two
    entries each connection's read brackets and the rows a gate diffuses,
    and folds S into the whole table once it falls below
    ``VISIT_SCALE_MIN``. Stored entries are kept at or above ``v_min``.
    """

    def __init__(self, sizes, kind: str, hp: Hyperparameters):
        sizes = tuple(sizes)
        if len(sizes) < 2 or not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                                     and s >= 1 for s in sizes):
            raise ValueError(f"bad architecture {sizes!r}: need an input and an output layer, "
                             f"every size a positive integer")
        if kind not in KINDS:
            raise ValueError(f"unknown network kind {kind!r}, expected one of {KINDS}")
        self.sizes = tuple(int(s) for s in sizes)
        self.kind = kind
        self.hp = hp
        pairs = list(zip(self.sizes, self.sizes[1:]))
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in pairs))
        n_conn = sum(n_in * n_out for n_in, n_out in pairs)
        self.luts = self.visits = None
        self.visit_scale = 1.0
        if kind == KIND_NLW:
            self.luts = np.zeros((n_conn, hp.r_res))
            self.visits = np.zeros((n_conn, hp.r_res))
        self.layers = []
        p = c = 0
        for n_in, n_out in pairs:
            n = n_in * n_out
            w = self.params[p:p + n].reshape(n_out, n_in)
            bias = self.params[p + n:p + n + n_out]
            lut = vis = None
            if self.luts is not None:
                lut = self.luts[c:c + n].reshape(n_out, n_in, hp.r_res)
                vis = self.visits[c:c + n].reshape(n_out, n_in, hp.r_res)
            self.layers.append(Layer(w, bias, lut, vis))
            p += n + n_out
            c += n

    @cached_property
    def update_maps(self) -> UpdateMaps:
        """The index maps of the parameter layout, built on first use."""
        dst, src = [], []
        n_src = sum(self.sizes[:-1])
        d0 = s0 = 0
        for li, (n_in, n_out) in enumerate(zip(self.sizes, self.sizes[1:])):
            nodes = np.arange(d0, d0 + n_out)
            dst += [np.repeat(nodes, n_in), nodes]
            src += [np.tile(np.arange(s0, s0 + n_in), n_out), np.full(n_out, n_src + li)]
            d0 += n_out
            s0 += n_in
        param_dst = np.concatenate(dst)
        param_src = np.concatenate(src)
        weight = param_src < n_src
        row_starts = linear_rates = None
        if self.luts is not None:
            row_starts = np.arange(self.luts.shape[0]) * self.hp.r_res
            linear_rates = np.where(weight, self.hp.nu, 1.0)
        return UpdateMaps(param_dst, param_src, param_dst[weight], param_src[weight],
                          row_starts, linear_rates)

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    def connection_count(self) -> int:
        """All connections including one bias connection per non-input node."""
        return self.params.shape[0]

    def lut_connection_count(self) -> int:
        return 0 if self.luts is None else self.luts.shape[0]

    def settled_visits(self, rows=slice(None)) -> np.ndarray:
        """Visit values of the given rows of ``visits`` (all by default), a new array."""
        return _settle_visits(self.visits[rows], self.visit_scale, self.hp)

    def fold_visit_scale(self) -> None:
        """Store every visit entry at scale 1: the values stay, the stored entries change."""
        self.visits[...] = self.settled_visits()
        self.visit_scale = 1.0

    def clone(self) -> "Network":
        twin = Network(self.sizes, self.kind, self.hp)
        np.copyto(twin.params, self.params)
        if self.luts is not None:
            np.copyto(twin.luts, self.luts)
            np.copyto(twin.visits, self.visits)
            twin.visit_scale = self.visit_scale
        return twin


# A training iteration folds the visit scale into the tables once it falls below this.
# At the default r_c of 0.001 that is about every 44k iterations; from 2^-64 the next
# scale is at least 2^-117, so stored entries (at most 1 / scale) stay far from overflow.
VISIT_SCALE_MIN = 2.0 ** -64


def _settle_visits(stored: np.ndarray, scale: float, hp: Hyperparameters,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Visit values ``max(stored * scale, v_min)`` of stored visit entries."""
    out = np.multiply(stored, scale, out=out)
    return np.maximum(out, hp.v_min, out=out)


@dataclass
class LayerTrace:
    """Per-layer record of one forward pass, as backprop and the updates read it.

    inputs       source activations, one per incoming connection column
    seg_lo       lower LUT grid index per source input, None for LW
    seg_frac     fractional position within the segment, None for LW
    lut_values   interpolated LUT part of each connection output, None for LW
    activations  tanh of each node's summed connection outputs plus bias
    slope        LUT slope estimate on a training pass; None for layer 0, LW, public passes
    """

    inputs: np.ndarray
    seg_lo: np.ndarray | None
    seg_frac: np.ndarray | None
    lut_values: np.ndarray | None
    activations: np.ndarray
    slope: np.ndarray | None


@dataclass
class ForwardTrace:
    """Everything the backward pass and the update rules need to see."""

    inputs: np.ndarray
    layers: list[LayerTrace]


# forward_batch runs as many rows at once as keep each (n_out, rows, n_in) temporary
# of the widest layer within this many float64 entries (2 MiB): a chunk's working set
# then stays in a core's L2 cache, and the memory it needs does not grow with the batch.
BATCH_ENTRIES = 2 ** 18


def _forward_layers(net: Network, act: np.ndarray, trace: list | None = None,
                    coords=None) -> np.ndarray:
    """Run one sample (n_in,) or a batch of rows (ns, n_in) through every layer.

    A batch puts the samples on a middle axis, so a connection output
    sits at [dst, sample, src], and its LUT layers go through
    ``_layer_outputs``. One LayerTrace per layer of a single sample is
    appended to trace when it is given. coords, if given, is layer 0's
    (lo, frac) and marks a training pass: LUT layers after the first use
    ``_probed_read``.
    """
    batch = act.ndim == 2
    for li, lay in enumerate(net.layers):
        w, bias = (lay.w[:, None, :], lay.bias[:, None]) if batch else (lay.w, lay.bias)
        lo = frac = lut_vals = slope = None
        if lay.lut is None:
            outputs = w * act
        elif batch:
            outputs = _layer_outputs(lay.lut, lay.cols, lay.w, act, net.hp)
        else:
            if li and coords is not None:
                lo, frac, lut_vals, slope = _probed_read(lay.lut, lay.cols, act, net.hp)
            else:
                lo, frac = segment_coords(act, net.hp) if li or coords is None else coords
                lut_vals = _lut_read(lay.lut, lay.cols, lo, frac)
            outputs = w * act + lut_vals
        y = np.tanh(outputs.sum(axis=-1) + bias)
        if trace is not None:
            trace.append(LayerTrace(act, lo, frac, lut_vals, y, slope))
        act = y.T if batch else y
    return act


def forward_network(net: Network, x, coords=None) -> tuple[np.ndarray, ForwardTrace]:
    """Run one input vector through the net.

    Input nodes are pass-through; the raw input is what the first layer's
    connections see. Returns the output activations and a full trace.
    Read-only on the network. Training passes ``segment_coords(x, net.hp)``
    as coords, and the trace then carries the LUT slope estimates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_inputs,):
        raise _misfit(net, "one sample", x)
    layers: list[LayerTrace] = []
    return _forward_layers(net, x, layers, coords), ForwardTrace(x, layers)


def forward_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Forward many samples at once; rows of xs are individual inputs.

    Rows go through the layers in chunks sized by ``BATCH_ENTRIES``.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.n_inputs:
        raise _misfit(net, "samples as rows", xs)
    out = np.empty((xs.shape[0], net.n_outputs))
    rows = max(1, BATCH_ENTRIES // max(lay.w.size for lay in net.layers))
    for start in range(0, xs.shape[0], rows):
        out[start:start + rows] = _forward_layers(net, xs[start:start + rows])
    return out


def init_network(sizes, kind: str, hp: Hyperparameters, rng: np.random.Generator) -> Network:
    """Freshly initialized network.

    Draw order is fixed so a seeded generator always produces the same
    net: per layer, linear weights (n_out, n_in), then biases, then for
    NLW the LUT ramp intercepts and slopes. Linear weights and biases
    are uniform on [-0.5, 0.5]; each LUT starts as the affine ramp
    intercept + slope * grid with both coefficients uniform on
    [-0.25, 0.25]; visit tables start filled with v_p, or with v_min if
    that is larger (visit entries never sit below v_min).
    """
    net = Network(sizes, kind, hp)
    grid = lut_grid(hp)
    start = 0
    for lay in net.layers:
        end = start + lay.w.size + lay.bias.size
        _uniform(rng, -0.5, 0.5, net.params[start:end])        # w, then bias
        start = end
        if lay.lut is not None:
            intercept, slope = rng.uniform(-0.25, 0.25, (2, *lay.w.shape, 1))
            np.multiply(slope, grid, out=lay.lut)
            lay.lut += intercept
    if net.visits is not None:
        net.visits.fill(max(hp.v_p, hp.v_min))
    return net


def _uniform(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> None:
    """Fill out in place with the draws ``rng.uniform(low, high, out.shape)`` returns."""
    rng.random(out=out)
    out *= high - low
    out += low


def find_nonfinite(net: Network) -> str | None:
    """Locate the first non-finite parameter, or None if all are finite.

    The one wording, e.g. ``layer 1: non-finite lut at dst 0, src 1, entry 2``.
    """
    buffers = [net.params] if net.luts is None else [net.params, net.luts, net.visits]
    if all(np.isfinite(buf).all() for buf in buffers):
        return None
    for li, lay in enumerate(net.layers):
        for name in ("w", "bias", "lut", "visits"):
            arr = getattr(lay, name)
            if arr is not None and not np.isfinite(arr).all():
                idx = np.argwhere(~np.isfinite(arr))[0]
                at = ", ".join(f"{axis} {i}" for axis, i in zip(("dst", "src", "entry"), idx))
                return f"layer {li}: non-finite {name} at {at}"
    return None


def _require_fit(net: Network, args: np.ndarray, vals: np.ndarray) -> None:
    """Raise ValueError unless args/vals are one or more sample rows that fit net."""
    if (args.ndim != 2 or vals.ndim != 2 or not 0 < len(args) == len(vals)
            or args.shape[1] != net.n_inputs or vals.shape[1] != net.n_outputs):
        raise _misfit(net, "one or more samples as rows", args, vals)


def _misfit(net: Network, samples: str, *arrays: np.ndarray) -> ValueError:
    """The one wording for data that does not fit ``net``: args, then vals if given."""
    sizes = " and ".join([f"{net.n_inputs} args", f"{net.n_outputs} vals"][:len(arrays)])
    shapes = " and ".join(str(a.shape) for a in arrays)
    return ValueError(f"need {samples} of {sizes}, got shape{'s' * (len(arrays) > 1)} {shapes}")
