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

from dataclasses import dataclass

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
    return np.array([lut_grid_point(j, hp) for j in range(hp.r_res)])


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
    present only in NLW networks.
    """

    w: np.ndarray
    bias: np.ndarray
    lut: np.ndarray | None = None
    visits: np.ndarray | None = None

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def cols(self) -> np.ndarray:
        """Cached source-index row for addressing LUT tensors."""
        cached = getattr(self, "_cols", None)
        if cached is None or cached.shape[0] != self.n_in:
            cached = np.arange(self.n_in)
            self._cols = cached
        return cached


class Network:
    """Layered feedforward net; holds its hyperparameters and kind."""

    def __init__(self, sizes, kind: str, hp: Hyperparameters, layers: list[Layer]):
        if kind not in KINDS:
            raise ValueError(f"unknown network kind {kind!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.kind = kind
        self.hp = hp
        self.layers = layers

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    def connection_count(self) -> int:
        """All connections including one bias connection per non-input node."""
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.sizes, self.sizes[1:]))

    def lut_connection_count(self) -> int:
        if self.kind == KIND_LW:
            return 0
        return sum(n_in * n_out for n_in, n_out in zip(self.sizes, self.sizes[1:]))

    def clone(self) -> "Network":
        layers = [
            Layer(
                lay.w.copy(),
                lay.bias.copy(),
                None if lay.lut is None else lay.lut.copy(),
                None if lay.visits is None else lay.visits.copy(),
            )
            for lay in self.layers
        ]
        return Network(self.sizes, self.kind, self.hp, layers)


@dataclass
class LayerTrace:
    """Per-layer record of one forward pass.

    inputs       source activations, one per incoming connection column
    outputs      per-connection outputs (n_out, n_in), bias excluded
    lut_values   interpolated LUT part of each output, None for LW
    seg_lo       lower LUT grid index per source input, None for LW
    seg_frac     fractional position within the segment, None for LW
    combination  per-node sum of connection outputs including bias
    activations  tanh of the combination
    """

    inputs: np.ndarray
    outputs: np.ndarray
    lut_values: np.ndarray | None
    seg_lo: np.ndarray | None
    seg_frac: np.ndarray | None
    combination: np.ndarray
    activations: np.ndarray


class ForwardTrace:
    """Everything the backward pass and the update rules need to see."""

    def __init__(self, inputs: np.ndarray, layers: list[LayerTrace]):
        self.inputs = inputs
        self.layers = layers

    @property
    def outputs(self) -> np.ndarray:
        return self.layers[-1].activations


def forward_network(net: Network, x) -> tuple[np.ndarray, ForwardTrace]:
    """Run one input vector through the net.

    Input nodes are pass-through; the raw input is what the first layer's
    connections see. Returns the output activations and a full trace.
    Read-only on the network.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_inputs,):
        raise ValueError(f"expected {net.n_inputs} inputs, got shape {x.shape}")
    hp = net.hp
    act = x
    traces = []
    for lay in net.layers:
        if lay.lut is not None:
            lo, frac = segment_coords(act, hp)
            lut_vals = _lut_read(lay.lut, lay.cols, lo, frac)
            outputs = lay.w * act + lut_vals
        else:
            lo = frac = lut_vals = None
            outputs = lay.w * act
        comb = outputs.sum(axis=1) + lay.bias
        y = np.tanh(comb)
        traces.append(LayerTrace(act, outputs, lut_vals, lo, frac, comb, y))
        act = y
    return act, ForwardTrace(x, traces)


def forward_batch(net: Network, xs: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Forward many samples at once; rows of xs are individual inputs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.n_inputs:
        raise ValueError(f"expected (n, {net.n_inputs}) inputs, got shape {xs.shape}")
    hp = net.hp
    out = np.empty((xs.shape[0], net.n_outputs))
    for start in range(0, xs.shape[0], chunk):
        act = xs[start:start + chunk]
        for lay in net.layers:
            if lay.lut is not None:
                lo, frac = segment_coords(act, hp)
                lut_vals = _lut_read(lay.lut, lay.cols, lo, frac)    # (n_out, ns, n_in)
                outputs = lay.w[:, None, :] * act[None, :, :] + lut_vals
            else:
                outputs = lay.w[:, None, :] * act[None, :, :]
            act = np.tanh(outputs.sum(axis=2) + lay.bias[:, None]).T
        out[start:start + act.shape[0]] = act
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
    grid = lut_grid(hp)
    layers = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = rng.uniform(-0.5, 0.5, size=(n_out, n_in))
        bias = rng.uniform(-0.5, 0.5, size=n_out)
        if kind == KIND_NLW:
            intercept = rng.uniform(-0.25, 0.25, size=(n_out, n_in))
            slope = rng.uniform(-0.25, 0.25, size=(n_out, n_in))
            lut = intercept[:, :, None] + slope[:, :, None] * grid
            visits = np.full((n_out, n_in, hp.r_res), hp.v_p)
            layers.append(Layer(w, bias, np.ascontiguousarray(lut), visits))
        else:
            layers.append(Layer(w, bias))
    return Network(sizes, kind, hp, layers)


def find_nonfinite(net: Network) -> str | None:
    """Locate the first non-finite parameter, or None if all are finite."""
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
