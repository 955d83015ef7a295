"""Network structure and the forward pass.

A network is a stack of fully connected layers. Input nodes pass their
values through unchanged; every other node applies tanh to the sum of
its incoming connection outputs plus a bias connection that always sees
the constant input 1.

Connections come in two flavours. A plain linear connection multiplies
its input by a scalar weight. A LUT connection adds a piecewise-linear
interpolation over ``r_res`` equally spaced grid points to a linear
term, and drags along a visit table of the same length that records how
often each grid region has been traversed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hyper import Hyperparameters, KIND_LW, KIND_NLW, KINDS

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


def _lut_read(lut: np.ndarray, cols, lo, frac):
    """Piecewise-linear read of a (n_out, n_in, r) LUT tensor.

    cols picks the source column of each input and broadcasts against
    lo/frac, which locate the segment of each input; the result has one
    read per destination row and input. This is the only place that
    blends the two entries bracketing a segment.
    """
    return (1.0 - frac) * lut[:, cols, lo] + frac * lut[:, cols, lo + 1]


def _probed_read(lut: np.ndarray, cols, x: np.ndarray, offsets: np.ndarray,
                 hp: Hyperparameters):
    """``_lut_read`` at x and the LUT part's slope estimate, from one gather.

    Reads the block [x; clamp(x + a); clamp(x - a)] over the k probe
    offsets a. Returns lo, frac and the read of row 0, then the mean of
    the k symmetric difference quotients (n_out, n_in); a pair whose
    clamped points coincide is left out of the mean (zero if all are).
    """
    k = offsets.shape[0]
    block = np.empty((2 * k + 1, x.shape[0]))
    block[0] = x
    np.add(x, offsets[:, None], out=block[1:k + 1])
    np.subtract(x, offsets[:, None], out=block[k + 1:])
    np.maximum(block, hp.i_min, out=block)
    np.minimum(block, hp.i_max, out=block)
    lo, frac = segment_coords(block, hp)
    reads = _lut_read(lut, cols, lo, frac)                    # (n_out, 2k + 1, n_in)
    den = block[1:k + 1] - block[k + 1:]
    diff = reads[:, 1:k + 1] - reads[:, k + 1:]
    if den.min() > 0.0:
        diff /= den
        slope = diff.sum(axis=1) / k
    else:
        good = den > 0.0
        diff /= np.where(good, den, 1.0)
        diff *= good
        slope = diff.sum(axis=1) / np.maximum(good.sum(axis=0), 1)
    return lo[0], frac[0], reads[:, 0], slope


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
    present only in NLW networks. All four are views into the owning
    network's buffers: write into them, never rebind them (an augmented
    assignment such as ``lay.w *= 2`` writes in place). ``cols`` is the
    source-index row for addressing LUT tensors.
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
    """

    def __init__(self, sizes, kind: str, hp: Hyperparameters):
        if kind not in KINDS:
            raise ValueError(f"unknown network kind {kind!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.kind = kind
        self.hp = hp
        pairs = list(zip(self.sizes, self.sizes[1:]))
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in pairs))
        n_conn = sum(n_in * n_out for n_in, n_out in pairs)
        self.luts = self.visits = None
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

    def clone(self) -> "Network":
        twin = Network(self.sizes, self.kind, self.hp)
        np.copyto(twin.params, self.params)
        if self.luts is not None:
            np.copyto(twin.luts, self.luts)
            np.copyto(twin.visits, self.visits)
        return twin


@dataclass
class LayerTrace:
    """Per-layer record of one forward pass, as backprop and the updates read it.

    inputs       source activations, one per incoming connection column
    seg_lo       lower LUT grid index per source input, None for LW
    seg_frac     fractional position within the segment, None for LW
    lut_values   interpolated LUT part of each connection output, None for LW
    activations  tanh of each node's summed connection outputs plus bias
    slope        LUT slope estimate if probe offsets were given; None for layer 0, LW
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


# rows that forward_batch runs through the layers at once
BATCH_CHUNK = 4096


def _forward_layers(net: Network, act: np.ndarray, trace: list | None = None,
                    offsets: np.ndarray | None = None, coords=None) -> np.ndarray:
    """Run one sample (n_in,) or a batch of rows (ns, n_in) through every layer.

    A batch puts the samples on a middle axis, so a connection output
    sits at [dst, sample, src]. One LayerTrace per layer is appended to
    trace when it is given. Given probe offsets, LUT layers after the
    first use ``_probed_read``; coords, if given, is layer 0's (lo, frac).
    """
    batch = act.ndim == 2
    for li, lay in enumerate(net.layers):
        w, bias = (lay.w[:, None, :], lay.bias[:, None]) if batch else (lay.w, lay.bias)
        lo = frac = lut_vals = slope = None
        if lay.lut is not None and li and offsets is not None:
            lo, frac, lut_vals, slope = _probed_read(lay.lut, lay.cols, act, offsets, net.hp)
        elif lay.lut is not None:
            lo, frac = segment_coords(act, net.hp) if li or coords is None else coords
            lut_vals = _lut_read(lay.lut, lay.cols, lo, frac)
        outputs = w * act if lut_vals is None else w * act + lut_vals
        y = np.tanh(outputs.sum(axis=-1) + bias)
        if trace is not None:
            trace.append(LayerTrace(act, lo, frac, lut_vals, y, slope))
        act = y.T if batch else y
    return act


def forward_network(net: Network, x, offsets: np.ndarray | None = None,
                    coords=None) -> tuple[np.ndarray, ForwardTrace]:
    """Run one input vector through the net.

    Input nodes are pass-through; the raw input is what the first layer's
    connections see. Returns the output activations and a full trace.
    Read-only on the network. Training passes the probe offsets, for the
    trace's slope estimates, and ``segment_coords(x, net.hp)`` as coords.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_inputs,):
        raise ValueError(f"expected {net.n_inputs} inputs, got shape {x.shape}")
    layers: list[LayerTrace] = []
    return _forward_layers(net, x, layers, offsets, coords), ForwardTrace(x, layers)


def forward_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Forward many samples at once; rows of xs are individual inputs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.n_inputs:
        raise ValueError(f"expected (n, {net.n_inputs}) inputs, got shape {xs.shape}")
    out = np.empty((xs.shape[0], net.n_outputs))
    for start in range(0, xs.shape[0], BATCH_CHUNK):
        out[start:start + BATCH_CHUNK] = _forward_layers(net, xs[start:start + BATCH_CHUNK])
    return out


def init_network(sizes, kind: str, hp: Hyperparameters, rng: np.random.Generator) -> Network:
    """Freshly initialized network.

    Draw order is fixed so a seeded generator always produces the same
    net: per layer, linear weights (n_out, n_in), then biases, then for
    NLW the LUT ramp intercepts and slopes. Linear weights and biases
    are uniform on [-0.5, 0.5]; each LUT starts as the affine ramp
    intercept + slope * grid with both coefficients uniform on
    [-0.25, 0.25]; visit tables start filled with v_p.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("architecture needs an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError("every layer needs at least one node")
    if kind not in KINDS:
        raise ValueError(f"unknown network kind {kind!r}")
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
        net.visits.fill(hp.v_p)
    return net


def _uniform(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> None:
    """Fill out in place with the draws ``rng.uniform(low, high, out.shape)`` returns."""
    rng.random(out=out)
    out *= high - low
    out += low


def find_nonfinite(net: Network) -> str | None:
    """Locate the first non-finite parameter, or None if all are finite."""
    buffers = [net.params] if net.luts is None else [net.params, net.luts, net.visits]
    if all(np.isfinite(buf).all() for buf in buffers):
        return None
    for li, lay in enumerate(net.layers):
        checks = [("weight", lay.w), ("bias", lay.bias)]
        if lay.lut is not None:
            checks += [("lut", lay.lut), ("visits", lay.visits)]
        for name, arr in checks:
            if np.isfinite(arr).all():
                continue
            idx = np.argwhere(~np.isfinite(arr))[0]
            if name == "bias":
                return f"layer {li} bias connection (dst {idx[0]})"
            if name == "weight":
                return f"layer {li} connection (dst {idx[0]}, src {idx[1]})"
            return f"layer {li} connection (dst {idx[0]}, src {idx[1]}) {name} entry {idx[2]}"
    return None
