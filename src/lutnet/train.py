"""On-line training: backprop, update rules, and the run loop.

One iteration processes one sample. The canonical order is: forward
pass, error backpropagation, linear weight updates (plain weights, LUT
linear parts, biases), LUT entry updates, visit table updates, and
finally one gate draw per LUT connection that switches on decay of the
touched entries plus diffusion of the LUT and its visit table. Outside
the gated rows, an iteration writes two LUT entries and two visit
entries per LUT connection, whatever ``r_res``: the decay of the other
visit entries is carried by ``Network.visit_scale``. Everything between
backprop and the diffusion, the gate draw included, is one step, the
updates (``_updates_numpy``).

So an iteration is four steps, forward, backprop, updates and diffusion,
and every one works in the network's ``core.Workspace``, bound on first
use and kept for the network's lifetime, as its buffers and
hyperparameters are fixed when it is built: the forward pass leaves each
layer's inputs, segments, reads, slopes and connection outputs in its flat
buffers, backprop writes the output error and the deltas beside them, and
the updates index them all at once. Each layer's probe read and connection
outputs and the diffusion run the compiled kernel's calls bound there
(``lutnet.kernel``) when it loads, and so do backprop and the updates, of
either kind of net, as one call that computes the deltas before it writes
the steps; their numpy bodies run otherwise (``_backprop_numpy`` and
``_updates_numpy``), and both give the same bits. On the kernel path only
the forward sum, the bias add, ``tanh`` and ``expm1`` stay in numpy.

The error function is half the summed squared output error, so output
deltas are simply (y - d) times the tanh slope. Because LUTs are only
piecewise differentiable, the derivative carried through a LUT
connection is estimated by averaging symmetric difference quotients at
a geometric ladder of probe offsets, ``Hyperparameters.probe_offsets``. The
forward pass reads the probes in its LUT gather, so it leaves the slope
estimates that backprop uses.

``Trainer.run`` checks each iteration's output, and scans the whole network
(``find_nonfinite``) at a log point only while the workspace's ``check_due``
flag is set: the run sets it when it starts, the kernel's updates and
diffusion calls set it when a value they write is not finite, and their numpy
forms on every call. A clean scan clears it, so on the kernel path a finite
run scans once, and a log point does not cost more at a larger ``r_res``.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    VISIT_SCALE_MIN,
    ForwardTrace,
    LutConnection,
    Network,
    Workspace,
    _misfit,
    _require_fit,
    _segment_ends,
    _table_read,
    find_nonfinite,
)
from .data import _count, _require_finite
from .hyper import Hyperparameters
from .regularize import _diffuse_rows, _gain_decay, _update_visits_tensor


class TrainingDiverged(RuntimeError):
    """Raised when a parameter or output stops being finite.

    ``Trainer.run`` words it ``<location> at iteration N, training row i,
    last window mse m``: the first non-finite parameter (``find_nonfinite``),
    the row presented last and the window mse logged last in that run.
    """


def approx_lut_derivative(conn: LutConnection, x: float, hp: Hyperparameters) -> float:
    """Estimated derivative of a LUT connection's weight function at x."""
    return float(conn.linear + _table_read(conn.lut, x, hp)[3][0, 0])


def backprop(net: Network, trace: ForwardTrace, target) -> list[np.ndarray]:
    """Per-node error deltas for every non-input layer.

    Every connection into node k carries the error e_i = delta[k] of
    its destination, so the returned list (indexed like net.layers)
    determines all connection errors. Output deltas are
    (y - d) * (1 - y^2); hidden deltas accumulate each downstream
    connection's error times its estimated weight-function derivative,
    whose LUT part is the slope estimate the trace carries.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (net.n_outputs,):
        raise ValueError(f"expected {net.n_outputs} target values, got shape {target.shape}")
    acts = [layer.activations for layer in trace.layers]
    deltas = [np.empty(n) for n in net.sizes[1:]]
    y = acts[-1]
    np.multiply(y - target, 1.0 - y * y, out=deltas[-1])
    _backprop_hidden(deltas, [lay.w for lay in net.layers],
                     [layer.slope for layer in trace.layers], acts)
    return deltas


def _backprop_numpy(ws: Workspace) -> None:
    """An iteration's backprop in numpy, in place: ``err`` = y - target, then the deltas.

    The reference the kernel's updates call matches and its fallback, for
    both kinds.
    """
    y = ws.y
    err = np.subtract(y, ws.target, out=ws.err)
    np.multiply(err, 1.0 - y * y, out=ws.deltas[-1])
    _backprop_hidden(ws.deltas, ws.weights, ws.slopes, ws.acts)


def _backprop_hidden(deltas: list, weights: list, slopes: list, acts: list) -> None:
    """Fill deltas[li - 1] from deltas[li], from the output layer down, in place.

    Layer li's weights, its slope estimates (None for LW) and activations
    are weights[li], slopes[li] and acts[li].
    """
    delta = deltas[-1]
    for li in range(len(deltas) - 1, 0, -1):
        slope = slopes[li]
        dodi = weights[li] if slope is None else weights[li] + slope
        back = np.add.reduce(delta[:, None] * dodi, 0)
        y_prev = acts[li - 1]
        delta = np.multiply(back, 1.0 - y_prev * y_prev, out=deltas[li - 1])


# ---------------------------------------------------------------------------
# Update rules

def _lut_entry_updates(lut: np.ndarray, ends, share, dwr) -> None:
    """Update the two entries bracketing each traversed segment, in place.

    lut[ends] holds each segment's low and high entry, (2, C), and share
    their interpolation shares (``_segment_ends``); dwr is each connection's
    gain-shaped step, ``-_gain_decay(read, step, hp)`` against the
    interpolated read itself (no input factor). Splitting by s/(2s^2-2s+1) on each side makes the
    interpolated value at the traversed point move by exactly dwr, and sends
    everything to a single entry when the position sits on a grid point.
    """
    frac = share[1]
    den = 2.0 * frac * frac - 2.0 * frac + 1.0
    lut[ends] += dwr * (share / den)


def _decay_touched(lut: np.ndarray, ends, share, hp: Hyperparameters) -> None:
    """Gated decay of the entries a read at (ends, share) touched, in place.

    Entries lut[ends] shrink by s_b; one whose interpolation share is zero
    (frac exactly 0 or 1) is left as it is.
    """
    lut[ends] *= np.where(share > 0.0, 1.0 - hp.s_b, 1.0)


def update_lut_component(conn: LutConnection, e: float, x: float,
                         hp: Hyperparameters, gate: bool) -> np.ndarray:
    """Update the (at most two) LUT entries addressed by input x, in place.

    With the gate on, the touched entries are additionally decayed.
    conn.lut must be a writable float64 array of r_res entries. Returns the
    connection's LUT for convenience.
    """
    lut = conn.lut
    if not (isinstance(lut, np.ndarray) and lut.dtype == np.float64 and lut.flags.writeable):
        got = (f"{lut.dtype}{'' if lut.flags.writeable else ', read-only'}"
               if isinstance(lut, np.ndarray) else type(lut).__name__)
        raise ValueError(f"the LUT is updated in place: it must be a writable float64 array "
                         f"of {hp.r_res} entries, got {got}")
    lo, frac, value, _ = _table_read(lut, x, hp)
    ends, share = _segment_ends(lo, frac)
    _lut_entry_updates(lut, ends, share, -_gain_decay(value[0], hp.mu * e, hp))
    if gate:
        _decay_touched(lut, ends, share, hp)
    return lut


def _updates_numpy(ws: Workspace, gate_u: np.ndarray, scale: float, new_scale: float,
                   hp: Hyperparameters) -> int:
    """An iteration's update steps in numpy, in place; returns the number of gated rows.

    ws holds the network's buffers and the iteration's deltas, inputs and
    reads. Each parameter steps by its gain-shaped step (``_gain_decay``)
    times its linear rate and then decays by 1 - s_b. For NLW, LUT row c,
    which reads source src[c], gets the gain-shaped step dwr[c] of its read;
    it is gated where zeta > gate_u[c], and the gated rows go to hit. Its two
    bracketing entries take dwr[c] (``_lut_entry_updates``), their visit
    entries decay and bump (``_update_visits_tensor``) from visit scale
    ``scale`` to ``new_scale``, and on a gated row the touched entries decay
    (``_decay_touched``). The reference the kernel's updates call matches and
    its fallback, for both kinds. It sets ``ws.check_due[0]`` on every call, so
    the next log point of ``Trainer.run`` scans the network.
    """
    ws.check_due[0] = 1
    step = np.multiply(ws.delta, hp.mu, out=ws.step)
    grad = step[ws.param_dst] * ws.inputs[ws.param_src]
    dw = _gain_decay(ws.params, grad, hp)
    if ws.rates is not None:
        dw *= ws.rates
    ws.params -= dw
    ws.params *= 1.0 - hp.s_b
    if ws.luts is None:
        return 0
    dwr = _gain_decay(ws.read, step[ws.conn_dst], hp)
    np.negative(dwr, out=dwr)
    hit = (hp.zeta > gate_u).nonzero()[0]
    ws.hit[:hit.shape[0]] = hit
    cols, share = _segment_ends(ws.lo[ws.src], ws.frac[ws.src])
    ends = np.arange(ws.src.shape[0]), cols         # row c's entries cols[:, c]
    _lut_entry_updates(ws.luts, ends, share, dwr)
    pair = ws.visits[ends]
    _update_visits_tensor(pair, share, scale, new_scale, hp)
    ws.visits[ends] = pair
    if hit.size:
        _decay_touched(ws.luts, (hit, cols[:, hit]), share[:, hit], hp)
    return hit.shape[0]


# ---------------------------------------------------------------------------
# One full iteration

def _apply_iteration(net: Network, x, target, row: int) -> float:
    """Forward, backprop, the updates and the diffusion for one sample.

    Row ``row`` of the gate block ``gate_u`` of net's ``Workspace``, filled
    by the caller, supplies one uniform per LUT connection in layer-major,
    destination-major, source-major order. Returns the sample's mean squared
    output error (from the pre-update forward pass). Every step reads and
    writes the workspace's flat buffers, all layers at a time: the forward
    pass leaves each layer's inputs, segments, reads and slopes there, the
    target is copied beside the outputs, backprop writes the output error and
    the deltas, the updates index them with the workspace's maps and leave
    the gated rows in ``ws.hit``, and the diffusion runs on those rows.
    Backprop and the updates are one bound call where the kernel takes the
    net, and ``_backprop_numpy`` then ``_updates_numpy`` otherwise.
    """
    ws = net._workspace
    hp = ws.hp
    ws.forward(x)
    ws.target[...] = target
    scale = net.visit_scale
    new_scale = scale * (1.0 - hp.r_c)
    n_hit = -1 if ws.updates is None else ws.updates(row, scale, new_scale)
    if n_hit < 0:
        _backprop_numpy(ws)
        n_hit = _updates_numpy(ws, ws.gate_u[row], scale, new_scale, hp)
    err = ws.err
    sq_err = float(err @ err) / err.shape[0]
    if ws.luts is None:
        return sq_err
    net.visit_scale = new_scale
    if n_hit:
        _diffuse_rows(ws, n_hit, new_scale, hp)
    if new_scale < VISIT_SCALE_MIN:
        net.fold_visit_scale()
    return sq_err


def train_iteration(net: Network, x, target, rng: np.random.Generator) -> float:
    """Present one sample and update the network in place.

    The generator is consumed for exactly one uniform per LUT connection
    (the regularization gates), drawn as a single layer-major block.
    Returns the sample's mean squared output error. A sample that does not
    fit the net or holds a NaN or infinity raises ValueError before the
    generator or the net is touched.
    """
    x, target = np.asarray(x, dtype=float), np.asarray(target, dtype=float)
    if x.shape != (net.n_inputs,) or target.shape != (net.n_outputs,):
        raise _misfit(net, "one sample", x, target)
    for name, values in (("x", x), ("target", target)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has a non-finite value")
    rng.random(out=net._workspace.gate_u[0])
    return _apply_iteration(net, x, target, 0)


# ---------------------------------------------------------------------------
# Run loop

class Trainer:
    """Drives training over a dataset with reproducible sample order.

    The sample order is reshuffled at every epoch boundary by a
    generator keyed on (seed, epoch), so any position in the run can be
    reconstructed from the seed and the iteration counter alone. The
    gate generator is the only stateful stream; its state plus the
    iteration counter fully determine the rest of a run, which is what
    makes checkpoint resume bit-exact.
    """

    def __init__(self, net: Network, args: np.ndarray, vals: np.ndarray, seed: int):
        args = np.asarray(args, dtype=float)
        vals = np.asarray(vals, dtype=float)
        _require_fit(net, args, vals)
        _require_finite(args, vals, "training data")
        self.net = net
        self.args = args
        self.vals = vals
        self.seed = _count("seed", seed)
        self.iteration = 0
        self.gate_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 1])))
        self._order = None
        self._order_epoch = -1

    def gate_state(self) -> dict:
        return self.gate_rng.bit_generator.state

    def restore(self, iteration: int, gate_state: dict) -> None:
        """Continue from iteration with the gate generator in gate_state.

        Raises ValueError, and changes nothing, for an iteration that is not a
        non-negative int, for a state the PCG64 bit generator refuses, and for
        one it would coerce: state.state, state.inc, uinteger and has_uint32
        must be ints (a bool is not one), has_uint32 0 or 1.
        """
        iteration = _count("iteration", iteration)
        try:
            words = (gate_state["state"]["state"], gate_state["state"]["inc"],
                     gate_state["uinteger"], gate_state["has_uint32"])
            if not (all(type(word) is int for word in words) and words[3] in (0, 1)):
                raise ValueError("state.state, state.inc, uinteger and has_uint32 must be "
                                 "ints, has_uint32 0 or 1")
            self.gate_rng.bit_generator.state = gate_state
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ValueError(f"the gate state is not a PCG64 state: "
                             f"{type(exc).__name__}: {exc}") from None
        self.iteration = iteration

    def _epoch_order(self, epoch: int) -> np.ndarray:
        if epoch != self._order_epoch:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([self.seed, 2, epoch])))
            self._order = rng.permutation(len(self.args))
            self._order_epoch = epoch
        return self._order

    def _diverged(self, where: str, idx, rows) -> TrainingDiverged:
        """The error for a run that diverged at row idx, after logging rows."""
        last = f"last window mse {rows[-1][1]!r}" if rows else "no window logged yet"
        return TrainingDiverged(f"{where} at iteration {self.iteration}, training row {idx}, "
                                f"{last}")

    def run(self, iterations: int, log_every: int = 1000, on_log=None,
            checkpoint_every: int | None = None, on_checkpoint=None,
            stop_when=None) -> list[tuple[int, float]]:
        """Train for a number of iterations.

        on_log(trainer, window_mse) fires every log_every iterations
        with the mean per-sample error since the previous log point, and
        once more for a run that ends off that cadence (or with
        log_every 0), with the mean over its trailing partial window;
        on_checkpoint(trainer) fires every checkpoint_every iterations.
        stop_when(trainer), polled at log points, ends the run early.
        Returns the log rows as (iteration, window mse) pairs, one per
        on_log call. iterations, log_every and checkpoint_every (unless None)
        must be non-negative ints. A block of iterations ends at an epoch, log
        or checkpoint boundary, or where the network's ``Workspace.gate_u``
        is full: its gate uniforms are drawn into those rows in one call.

        Raises ``TrainingDiverged`` once an output is not finite, or when
        ``find_nonfinite`` finds a non-finite value at a log point or at the
        run's end. It scans only while ``Workspace.check_due`` is set: at the
        run's first scan, and after a training write that may have left a
        non-finite value. So a non-finite value that a callback writes into
        the arrays is found once it reaches the output, once training writes
        carry it, or in the next run.
        """
        iterations, log_every = _count("iterations", iterations), _count("log_every", log_every)
        if checkpoint_every is not None:
            checkpoint_every = _count("checkpoint_every", checkpoint_every)
        net = self.net
        n = len(self.args)
        end = self.iteration + iterations
        gate_u, check_due = net._workspace.gate_u, net._workspace.check_due
        check_due[0] = 1                # the state the run starts from is scanned once
        rows: list[tuple[int, float]] = []
        window_sum = 0.0
        window_n = 0
        while self.iteration < end:
            epoch, pos = divmod(self.iteration, n)
            order = self._epoch_order(epoch)
            block = min(end - self.iteration, n - pos, gate_u.shape[0])
            if log_every:
                next_log = log_every - self.iteration % log_every
                block = min(block, next_log)
            if checkpoint_every:
                next_ck = checkpoint_every - self.iteration % checkpoint_every
                block = min(block, next_ck)
            self.gate_rng.random(out=gate_u[:block])
            for b in range(block):
                idx = order[pos + b]
                err = _apply_iteration(net, self.args[idx], self.vals[idx], b)
                window_sum += err
                window_n += 1
                if not math.isfinite(err):
                    self.iteration += b + 1
                    raise self._diverged(find_nonfinite(net) or "non-finite network output",
                                         idx, rows)
            self.iteration += block
            at_log = log_every and self.iteration % log_every == 0
            if (at_log or self.iteration == end) and check_due[0]:
                bad = find_nonfinite(net)
                if bad is not None:
                    raise self._diverged(bad, idx, rows)
                check_due[0] = 0
            if at_log:
                rows.append((self.iteration, window_sum / max(window_n, 1)))
                if on_log is not None:
                    on_log(self, window_sum / max(window_n, 1))
                window_sum = 0.0
                window_n = 0
                if stop_when is not None and stop_when(self):
                    break
            if checkpoint_every and self.iteration % checkpoint_every == 0 \
                    and on_checkpoint is not None and self.iteration < end:
                on_checkpoint(self)
        if window_n and (not log_every or self.iteration % log_every != 0):
            rows.append((self.iteration, window_sum / window_n))
            if on_log is not None:
                on_log(self, window_sum / window_n)
        return rows
