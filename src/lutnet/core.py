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

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import kernel
from .hyper import Hyperparameters, KIND_NLW, KINDS

# ---------------------------------------------------------------------------
# LUT grid and interpolation


def lut_grid(hp: Hyperparameters) -> np.ndarray:
    """The r_res grid points: point j is i_min + j / (r_res - 1) * span, the ends on the edges."""
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


def _probed_read_numpy(lut: np.ndarray, x: np.ndarray, hp: Hyperparameters, out=None):
    """The read of a (n_out, n_in, r) LUT tensor at the inputs x and its slope estimate.

    Reads the block [x; clamp(x + a); clamp(x - a)] over the k offsets a
    of ``hp.probe_offsets`` in one gather: input j reads table (d, j) of
    every destination d. Returns lo, frac and the read of row 0, then the
    mean of the k symmetric difference quotients (n_out, n_in); a pair
    whose clamped points coincide is left out of the mean (zero if all are).
    A read blends the two entries bracketing its segment as
    (1 - frac) * t[lo] + frac * t[lo + 1]. With out, four arrays of those
    shapes, the results are written into them and out is returned.

    This is the single-sample read in numpy: the reference that the kernel's
    ``probed_read`` matches bit for bit, the fallback of a ``Workspace`` layer
    the kernel does not take, and the read of the one-table scalar forms.
    """
    k = hp.probe_offsets.shape[0]
    block = np.empty((2 * k + 1, x.shape[0]))
    block[0] = x
    np.add(x, hp.probe_offsets[:, None], out=block[1:k + 1])
    np.subtract(x, hp.probe_offsets[:, None], out=block[k + 1:])
    np.maximum(block, hp.i_min, out=block)
    np.minimum(block, hp.i_max, out=block)
    lo, frac = segment_coords(block, hp)
    src = np.arange(x.shape[0])          # reads is (n_out, 2k + 1, n_in)
    reads = (1.0 - frac) * lut[:, src, lo] + frac * lut[:, src, lo + 1]
    den = block[1:k + 1] - block[k + 1:]
    diff = reads[:, 1:k + 1] - reads[:, k + 1:]
    good = den > 0.0
    diff /= np.where(good, den, 1.0)
    diff *= good
    slope = diff.sum(axis=1) / np.maximum(good.sum(axis=0), 1)
    if out is None:
        return lo[0], frac[0], reads[:, 0], slope
    for dst, got in zip(out, (lo[0], frac[0], reads[:, 0], slope)):
        dst[...] = got
    return out


def _table(values, n: int, what: str, hp: Hyperparameters) -> np.ndarray:
    """One-row (1, n) float copy of a scalar form's table; what is "LUT" or "visit".

    Visit entries must be finite and at least v_min, as ``load_model``
    requires of stored ones: the diffusion divides by them.
    """
    row = np.array(values, dtype=float)
    if row.shape != (n,):
        raise ValueError(f"expected {n} {what} entries, got shape {row.shape}")
    if what == "visit" and not (np.isfinite(row) & (row >= hp.v_min)).all():
        raise ValueError(f"visit entries must be finite and at least v_min={hp.v_min!r}")
    return row[None]


def _table_read(table, x: float, hp: Hyperparameters):
    """``_probed_read_numpy`` of ``_table``'s copy of a LUT at the scalar x: lo, frac, read, slope.

    The read of ``interpolate``, ``update_lut_component`` and ``approx_lut_derivative``.
    """
    return _probed_read_numpy(_table(table, hp.r_res, "LUT", hp)[None], np.array([float(x)]), hp)


def _layer_outputs(lut: np.ndarray, w: np.ndarray, act: np.ndarray,
                   hp: Hyperparameters) -> np.ndarray:
    """Every connection output of one LUT layer for a batch of rows (rows, n_in).

    out[d, q, s] = w[d, s] * act[q, s] + the read of table (d, s) at
    act[q, s], as one C-ordered (n_out, rows, n_in) array: each row of n_in
    outputs is contiguous, so numpy sums it pairwise, in the order it sums a
    single sample's (n_out, n_in) outputs, and a batch row equals
    ``forward_network`` bit for bit. Runs the compiled kernel
    (``lutnet.kernel``) when it loads and takes the arguments, else
    ``_layer_outputs_numpy``; both give the same bits.
    """
    kern = kernel.load()
    out = None if kern is None else kern.layer_outputs(lut, w, act, hp)
    return _layer_outputs_numpy(lut, w, act, hp) if out is None else out


def _layer_outputs_numpy(lut: np.ndarray, w: np.ndarray, act: np.ndarray,
                         hp: Hyperparameters) -> np.ndarray:
    """``_layer_outputs`` in numpy: the reference the kernel matches, and its fallback."""
    lo, frac = segment_coords(act, hp)
    dst = np.arange(lut.shape[0])[:, None, None]
    src = np.arange(act.shape[1])
    out = np.multiply(w[:, None, :], act, out=np.empty((lut.shape[0], *act.shape)))
    # (n_out, rows, n_in) gathers in C order; _probed_read_numpy's put the destination innermost
    low, high = lut[dst, src, lo], lut[dst, src, lo + 1]
    low *= 1.0 - frac           # (1 - frac) * t0 + frac * t1, as _probed_read_numpy blends
    high *= frac
    low += high
    out += low
    return out


def interpolate(values, x: float, hp: Hyperparameters) -> float:
    """Piecewise-linear read of a LUT at input x.

    Exact at grid points; x at the upper domain edge returns the last
    entry. Inputs outside the domain are clamped to the nearest edge.
    """
    return float(_table_read(values, x, hp)[2][0, 0])


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

class _Fixed:
    """An attribute fixed when its object is built, at its first assignment.

    Assigning it another object, or deleting it, raises AttributeError naming
    it; assigning the object it holds passes, as an augmented assignment does
    after writing in place (``lay.w *= 2``). The class defines no ``__get__``,
    so a read finds the value in the instance dict, with no Python call.
    """

    def __set_name__(self, owner, name):
        self.key, self.name = name, f"{owner.__name__}.{name}"

    def __set__(self, obj, value):
        if obj.__dict__.setdefault(self.key, value) is not value:
            self.__delete__(obj)

    def __delete__(self, obj):
        raise AttributeError(f"{self.name} is fixed when the network is built: "
                             f"write into its arrays in place")


class Layer:
    """Dense layer parameters, connection (dst, src) at matrix position [dst, src].

    ``w`` holds the scalar weight of LW connections or the linear part of
    LUT connections. ``lut`` and ``visits`` are (n_out, n_in, r_res) and
    present only in NLW networks; ``visits`` holds the stored entries,
    which ``Network.settled_visits`` turns into visit values. All four are
    views into the owning network's buffers, fixed when it is built: write
    into them (an augmented assignment such as ``lay.w *= 2`` writes in
    place); rebinding one raises AttributeError.
    """

    w, bias, lut, visits = _Fixed(), _Fixed(), _Fixed(), _Fixed()

    def __init__(self, w: np.ndarray, bias: np.ndarray, lut: np.ndarray | None = None,
                 visits: np.ndarray | None = None):
        self.w, self.bias, self.lut, self.visits = w, bias, lut, visits

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_in(self) -> int:
        return self.w.shape[1]


def _layer_views(sizes, params, luts, visits):
    """(w, bias, lut, visits) of every layer, as views into the network's flat buffers.

    Layer after layer, params holds the (n_out, n_in) weights then the
    n_out biases, and luts and visits the layer's (n_out, n_in, r) rows; lut
    and visits are None for LW (luts None).
    """
    views = []
    p = c = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        n = n_in * n_out
        w = params[p:p + n].reshape(n_out, n_in)
        bias = params[p + n:p + n + n_out]
        lut = vis = None
        if luts is not None:
            lut = luts[c:c + n].reshape(n_out, n_in, luts.shape[1])
            vis = visits[c:c + n].reshape(n_out, n_in, luts.shape[1])
        views.append((w, bias, lut, vis))
        p += n + n_out
        c += n
    return views


def _update_maps(sizes, hp: Hyperparameters, nlw: bool):
    """param_dst, param_src, conn_dst, src and rates: the index maps that let one
    update pass cover every layer of a net of these sizes.

    Number the nodes that layers feed (their deltas) layer after layer, and
    the inputs layers read likewise, followed by one constant-1 bias input per
    layer. Entry i of ``Network.params`` runs from input ``param_src[i]`` to
    node ``param_dst[i]``; LUT row c from input ``src[c]`` to node
    ``conn_dst[c]``. ``rates`` scales each entry's linear update: nu on the
    linear part of a LUT connection, 1 on a bias. LW has no LUT rows, so its
    ``conn_dst`` and ``src`` are empty, and its rates are None: every rate is 1.
    """
    dst, src = [], []
    n_src = sum(sizes[:-1])
    d0 = s0 = 0
    for li, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        nodes = np.arange(d0, d0 + n_out)
        dst += [np.repeat(nodes, n_in), nodes]
        src += [np.tile(np.arange(s0, s0 + n_in), n_out), np.full(n_out, n_src + li)]
        d0 += n_out
        s0 += n_in
    param_dst = np.concatenate(dst)
    param_src = np.concatenate(src)
    if not nlw:
        none = np.zeros(0, dtype=np.intp)
        return param_dst, param_src, none, none, None
    weight = param_src < n_src
    return param_dst, param_src, param_dst[weight], param_src[weight], np.where(weight, hp.nu, 1.0)


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

    ``sizes``, ``kind``, ``hp``, the three buffers and the tuple ``layers``
    are fixed when the network is built: rebinding one raises AttributeError,
    so the layers' views, the ``Workspace`` that training and
    ``forward_network`` bind on first use and the batch pass all read the
    same buffers for the network's lifetime.
    """

    sizes, kind, hp = _Fixed(), _Fixed(), _Fixed()
    params, luts, visits, layers = _Fixed(), _Fixed(), _Fixed(), _Fixed()

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
        tables = (sum(n_in * n_out for n_in, n_out in pairs), hp.r_res)
        self.luts = np.zeros(tables) if kind == KIND_NLW else None
        self.visits = np.zeros(tables) if kind == KIND_NLW else None
        self.visit_scale = 1.0
        self.layers = tuple(Layer(*views) for views in
                            _layer_views(self.sizes, self.params, self.luts, self.visits))

    @cached_property
    def _workspace(self) -> "Workspace":
        """The network's ``Workspace``, bound on first use and kept for its lifetime."""
        return Workspace(self)

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

    def settled_visits(self) -> np.ndarray:
        """Visit values of every row of ``visits``, a new array."""
        return _settle_visits(self.visits, self.visit_scale, self.hp)

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
    """Per-layer record of one forward pass, as ``forward_network`` returns it.

    inputs       source activations, one per incoming connection column
    seg_lo       lower LUT grid index per source input, None for LW
    seg_frac     fractional position within the segment, None for LW
    lut_values   interpolated LUT part of each connection output, None for LW
    activations  tanh of each node's summed connection outputs plus bias
    slope        LUT slope estimate per connection, None for LW
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
# A workspace's gate block holds as many rows of gate uniforms, one per LUT connection,
# as fit in this many float64 entries (128 KiB); a block of Trainer.run fills at most that.
GATE_ENTRIES = 2 ** 14


class Workspace:
    """One network's single-sample buffers, with the kernel's calls bound to them.

    Flat arrays in the order the index maps of ``_update_maps`` number them:
    ``inputs`` (every layer's inputs, then a 1 per bias), their segments ``lo``
    and ``frac``, ``read`` and ``slope`` per LUT connection, the connection
    outputs ``outputs`` of every layer, ``delta`` and ``step`` per fed node,
    the gated rows ``hit``, the outputs ``y``, the sample's ``target`` and the
    output error ``err``, the gate block ``gate_u``, rows of one uniform per
    LUT connection (``GATE_ENTRIES`` in all, at least one row), the
    diffusion's row scratch ``pairs``, 4 * (r_res - 1) entries, and for the
    kernel's updates call the layer widths ``sizes`` and the raw steps
    ``grad`` and gain arguments ``arg`` of every parameter, then every LUT
    connection, and ``check_due``, one intp entry that is 1 once a training
    write may have left a value that is not finite (see below). A layer reads
    its slice of ``inputs``, writes its segments, reads, slopes and connection
    outputs into its slices, (n_out, n_in) views where a connection has one,
    and its tanh into the next layer's inputs:
    nothing is concatenated or allocated. An LW net has no LUT connection: its
    LUT-side arrays are empty, and its ``slope``, like its ``luts``,
    ``visits`` and ``rates``, is None.

    Bound once, for the network's lifetime (``Network._workspace``): the
    network's ``params``, ``luts``, ``visits`` and ``hp``, which are fixed
    when it is built, the index maps ``param_dst``, ``param_src``,
    ``conn_dst``, ``src`` and ``rates`` with the rates of those
    hyperparameters, the kernel loaded then and its calls on the buffers, the
    gate block among them, and one outputs step per layer: the bound read,
    which writes the layer's connection outputs (for an LW layer those alone),
    or where the kernel declines it, or does not load, its numpy form
    ``_connection_outputs_numpy``. The forward pass runs, per layer, that
    step, then numpy's sum of the outputs, the bias add and ``tanh``. The
    diffusion (NLW) and the backprop-and-updates call of either kind are None
    where numpy does the work. The layer widths ``sizes`` and the four maps are
    read-only once built, so the ranges the updates bind checks hold for the
    workspace's lifetime.

    ``check_due`` starts at 1. The bound updates and diffusion calls set it to
    1 when a parameter, LUT entry or visit entry they write is not finite, and
    their numpy forms set it on every call, so ``Trainer.run``, which clears it
    after a clean ``find_nonfinite`` scan, scans at a log point only when a
    write since the last scan may have left a non-finite value.
    """

    def __init__(self, net: Network):
        sizes, hp = net.sizes, net.hp
        self.params, self.luts, self.visits, self.hp = net.params, net.luts, net.visits, hp
        self.kern = kernel.load()
        nlw = self.luts is not None
        (self.param_dst, self.param_src, self.conn_dst, self.src,
         self.rates) = _update_maps(sizes, hp, nlw)
        n_src, n_layers = sum(sizes[:-1]), len(sizes) - 1
        self.sizes = np.array(sizes, dtype=np.intp)
        for fixed in (self.sizes, self.param_dst, self.param_src, self.conn_dst, self.src):
            fixed.flags.writeable = False
        self.inputs = np.ones(n_src + n_layers)
        self.x = self.inputs[:sizes[0]]
        n_out = sizes[-1]
        self.y, self.target, self.err = np.empty(n_out), np.empty(n_out), np.empty(n_out)
        self.delta, self.step = np.empty(sum(sizes[1:])), np.empty(sum(sizes[1:]))
        self.weights = [lay.w for lay in net.layers]
        self.slopes, self.reads = [None] * n_layers, [None] * n_layers
        self.layer_inputs, self.acts, self.deltas, self.layer_passes = [], [], [], []
        n_conn, n_seg = (self.luts.shape[0], n_src) if nlw else (0, 0)
        self.gate_u = np.zeros((max(1, GATE_ENTRIES // max(n_conn, 1)), n_conn))
        self.lo, self.frac = np.zeros(n_seg, dtype=np.intp), np.zeros(n_seg)
        self.read = np.zeros(n_conn)
        self.slope = np.zeros(n_conn) if nlw else None
        self.outputs = np.zeros(sum(lay.w.size for lay in net.layers))
        self.hit = np.zeros(n_conn, dtype=np.intp)
        self.pairs = np.zeros(4 * (self.luts.shape[1] - 1) if nlw else 0)
        self.check_due = np.ones(1, dtype=np.intp)
        n_steps = self.params.shape[0] + n_conn
        self.grad, self.arg = np.zeros(n_steps), np.zeros(n_steps)
        s = c = d = 0
        for li, lay in enumerate(net.layers):
            n_out, n_in = lay.w.shape
            x = self.inputs[s:s + n_in]
            act = self.y if li == n_layers - 1 else self.inputs[s + n_in:s + n_in + n_out]
            outputs = self.outputs[c:c + n_in * n_out].reshape(n_out, n_in)
            out = (None,) * 4
            if nlw:
                out = (self.lo[s:s + n_in], self.frac[s:s + n_in],
                       self.read[c:c + n_in * n_out].reshape(n_out, n_in),
                       self.slope[c:c + n_in * n_out].reshape(n_out, n_in))
                self.reads[li], self.slopes[li] = out, out[3]
            outputs_of = None if self.kern is None else self.kern.bind_read(
                lay.lut, lay.w, x, hp, *out, outputs)
            if outputs_of is None:
                outputs_of = partial(_connection_outputs_numpy, lay.lut, lay.w, x, hp, out,
                                     outputs)
            self.layer_passes.append((outputs_of, outputs, lay.bias, act))
            self.layer_inputs.append(x)
            self.acts.append(act)
            self.deltas.append(self.delta[d:d + n_out])
            s, c, d = s + n_in, c + n_in * n_out, d + n_out
        self.updates = self.diffuse = None
        if self.kern is not None:
            self.updates = self.kern.bind_updates(self, hp)
            if nlw:
                self.diffuse = self.kern.bind_diffusion(self.luts, self.visits, self.pairs,
                                                        self.hit, self.check_due, hp)

    def forward(self, x) -> np.ndarray:
        """Run one sample through every layer, in place; returns ``y``, the outputs."""
        self.x[...] = x
        for outputs_of, outputs, bias, act in self.layer_passes:
            outputs_of()
            np.add.reduce(outputs, -1, out=act)     # ndarray.sum without its wrapper
            act += bias
            np.tanh(act, out=act)
        return self.y


def _connection_outputs_numpy(lut, w, x, hp: Hyperparameters, out, outputs) -> None:
    """A ``Workspace`` layer's connection outputs in numpy, in place: the fallback of
    its bound read and the reference that the kernel's ``probed_read`` matches.

    Writes w * x into outputs, and for a LUT layer (lut not None) reads the tables
    at x into out, the layer's (lo, frac, read, slope), and adds the read.
    """
    np.multiply(w, x, out=outputs)
    if lut is not None:
        _probed_read_numpy(lut, x, hp, out=out)
        outputs += out[2]


def _forward_layers(net: Network, act: np.ndarray) -> np.ndarray:
    """Run a batch of rows (ns, n_in) through every layer.

    The samples sit on a middle axis, so a connection output sits at
    [dst, sample, src]; LUT layers go through ``_layer_outputs``.
    """
    for lay in net.layers:
        if lay.lut is None:
            outputs = lay.w[:, None, :] * act
        else:
            outputs = _layer_outputs(lay.lut, lay.w, act, net.hp)
        act = np.tanh(outputs.sum(axis=-1) + lay.bias[:, None]).T
    return act


def forward_network(net: Network, x) -> tuple[np.ndarray, ForwardTrace]:
    """Run one input vector through the net.

    Input nodes are pass-through; the raw input is what the first layer's
    connections see. Returns the output activations and a full trace,
    the LUT slope estimates included, as copies of what the network's
    ``Workspace`` holds after the pass a training iteration runs. Writes
    nothing but that workspace.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_inputs,):
        raise _misfit(net, "one sample", x)
    ws = net._workspace
    ws.forward(x)
    layers = []
    for inputs, out, act in zip(ws.layer_inputs, ws.reads, ws.acts):
        lo, frac, read, slope = (None,) * 4 if out is None else (a.copy() for a in out)
        layers.append(LayerTrace(inputs.copy(), lo, frac, read, act.copy(), slope))
    return layers[-1].activations, ForwardTrace(x, layers)


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
        net.params[start:end] = rng.uniform(-0.5, 0.5, end - start)      # w, then bias
        start = end
        if lay.lut is not None:
            intercept, slope = rng.uniform(-0.25, 0.25, (2, *lay.w.shape, 1))
            np.multiply(slope, grid, out=lay.lut)
            lay.lut += intercept
    if net.visits is not None:
        net.visits.fill(max(hp.v_p, hp.v_min))
    return net


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
