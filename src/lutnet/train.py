"""On-line training: backprop, update rules, and the run loop.

One iteration processes one sample. The canonical order is: forward
pass, error backpropagation, linear weight updates (plain weights, LUT
linear parts, biases), LUT entry updates, visit table updates, and
finally one gate draw per LUT connection that switches on decay of the
touched entries plus diffusion of the LUT and its visit table.

The error function is half the summed squared output error, so output
deltas are simply (y - d) times the tanh slope. Because LUTs are only
piecewise differentiable, the derivative carried through a LUT
connection is estimated by averaging symmetric difference quotients at
a geometric ladder of probe offsets. Training reads them in the forward
pass's LUT gather and locates each training row on the grid just once.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    ForwardTrace,
    LutConnection,
    Network,
    _lut_read,
    _probed_read,
    find_nonfinite,
    forward_network,
    segment_coords,
)
from .hyper import Hyperparameters
from .regularize import (
    _assemble_pairs,
    _gain_decay,
    _pair_core,
    _update_visits_tensor,
    _visit_ratios,
)


class TrainingDiverged(RuntimeError):
    """Raised when a parameter or output stops being finite."""


def derivative_offsets(hp: Hyperparameters) -> np.ndarray:
    """Probe offsets a_l, a_l*a_m, a_l*a_m^2, ... up to the last one <= a_h.

    Always non-empty; one more a_m step past the last entry would
    exceed a_h.
    """
    out = []
    a = hp.a_l
    while True:
        out.append(a)
        if a * hp.a_m > hp.a_h:
            break
        a *= hp.a_m
    return np.asarray(out)


def approx_lut_derivative(conn: LutConnection, x: float, hp: Hyperparameters) -> float:
    """Estimated derivative of a LUT connection's weight function at x."""
    slope = _probed_read(conn.lut[None, None], 0, np.asarray([x], dtype=float),
                         derivative_offsets(hp), hp)[3]
    return float(conn.linear + slope[0, 0])


def backprop(net: Network, trace: ForwardTrace, target,
             offsets: np.ndarray | None = None) -> list[np.ndarray]:
    """Per-node error deltas for every non-input layer.

    Every connection into node k carries the error e_i = delta[k] of
    its destination, so the returned list (indexed like net.layers)
    determines all connection errors. Output deltas are
    (y - d) * (1 - y^2); hidden deltas accumulate each downstream
    connection's error times its estimated weight-function derivative.
    Slope estimates come from the trace if the forward pass read them.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (net.n_outputs,):
        raise ValueError(f"expected {net.n_outputs} target values, got shape {target.shape}")
    if offsets is None:
        offsets = derivative_offsets(net.hp)
    layers = trace.layers
    y = layers[-1].activations
    delta = (y - target) * (1.0 - y * y)
    deltas = [np.empty(0)] * len(net.layers)
    deltas[-1] = delta
    for li in range(len(net.layers) - 1, 0, -1):
        lay = net.layers[li]
        slope = layers[li].slope
        if lay.lut is not None and slope is None:
            slope = _probed_read(lay.lut, lay.cols, layers[li].inputs, offsets, net.hp)[3]
        dodi = lay.w if slope is None else lay.w + slope
        back = (delta[:, None] * dodi).sum(axis=0)
        y_prev = layers[li - 1].activations
        delta = back * (1.0 - y_prev * y_prev)
        deltas[li - 1] = delta
    return deltas


# ---------------------------------------------------------------------------
# Update rules

def _lut_entry_updates(lut: np.ndarray, at, frac, lut_value, step,
                       hp: Hyperparameters) -> None:
    """Update the two entries bracketing each traversed segment, in place.

    lut is a flat table array and at the flat index of each lower
    entry; lut_value is the interpolated read there and step the
    learning step times the error of the connection's destination. The
    raw step is gain-shaped against the interpolated value itself (no
    input factor). Splitting by s/(2s^2-2s+1) on each side makes the
    interpolated value at the traversed point move by exactly the raw
    step, and sends everything to a single entry when the position sits
    on a grid point.
    """
    dwr = -_gain_decay(lut_value, step, hp)
    den = 2.0 * frac * frac - 2.0 * frac + 1.0
    lut[at] += dwr * ((1.0 - frac) / den)
    lut[at + 1] += dwr * (frac / den)


def _decay_touched(lut: np.ndarray, at, frac, hp: Hyperparameters) -> None:
    """Gated decay of the entries a read at (at, frac) touched, in place.

    Entries at and at + 1 of the flat table array shrink by s_b; one
    whose interpolation share is zero (frac exactly 0 or 1) is left as
    it is.
    """
    lut[at] *= np.where(frac < 1.0, 1.0 - hp.s_b, 1.0)
    lut[at + 1] *= np.where(frac > 0.0, 1.0 - hp.s_b, 1.0)


def update_lut_component(conn: LutConnection, e: float, x: float,
                         hp: Hyperparameters, gate: bool) -> np.ndarray:
    """Update the (at most two) LUT entries addressed by input x, in place.

    With the gate on, the touched entries are additionally decayed.
    Returns the connection's LUT for convenience.
    """
    lo, frac = segment_coords(np.asarray([x], dtype=float), hp)
    value = _lut_read(conn.lut[None, None], 0, lo, frac)[0]
    _lut_entry_updates(conn.lut, lo, frac, value, hp.mu * e, hp)
    if gate:
        _decay_touched(conn.lut, lo, frac, hp)
    return conn.lut


# ---------------------------------------------------------------------------
# One full iteration

def _apply_iteration(net: Network, x, target, gate_u: np.ndarray,
                     offsets: np.ndarray, coords=None) -> float:
    """Forward, backprop, and all updates for one sample.

    gate_u supplies one uniform draw per LUT connection in layer-major,
    destination-major, source-major order. Returns the sample's mean
    squared output error (from the pre-update forward pass). Every
    update step runs once over the network's flat buffers, all layers
    at a time. coords, if given, is ``segment_coords(x, net.hp)``.
    """
    hp = net.hp
    y, trace = forward_network(net, x, offsets, coords)
    target = np.asarray(target, dtype=float)
    deltas = backprop(net, trace, target, offsets)
    err = y - target
    sq_err = float(err @ err) / err.shape[0]

    maps = net.update_maps
    step = hp.mu * np.concatenate(deltas)
    inputs = np.concatenate([tr.inputs for tr in trace.layers] + [np.ones(len(deltas))])
    grad = step[maps.param_dst] * inputs[maps.param_src]
    dw = _gain_decay(net.params, grad, hp)
    if maps.linear_rates is not None:
        dw *= maps.linear_rates
    net.params -= dw
    net.params *= 1.0 - hp.s_b
    if net.luts is None:
        return sq_err

    frac = np.concatenate([tr.seg_frac for tr in trace.layers])[maps.conn_src]
    at = np.concatenate([tr.seg_lo for tr in trace.layers])[maps.conn_src]
    at += maps.row_starts
    lut_value = np.concatenate([tr.lut_values.reshape(-1) for tr in trace.layers])
    luts = net.luts.reshape(-1)
    _lut_entry_updates(luts, at, frac, lut_value, step[maps.conn_dst], hp)

    _update_visits_tensor(net.visits, at, frac, hp)

    hit = np.flatnonzero(hp.zeta > gate_u)
    if hit.size:
        _decay_touched(luts, at[hit], frac[hit], hp)
        vvals = net.visits[hit]
        den_lo, den_hi = _visit_ratios(vvals, hp)
        net.luts[hit] = _assemble_pairs(
            *_pair_core(net.luts[hit], den_lo, den_hi, hp, smooth=True))
        new_vis = _assemble_pairs(*_pair_core(vvals, den_lo, den_hi, hp, smooth=False))
        np.maximum(new_vis, hp.v_min, out=new_vis)
        net.visits[hit] = new_vis
    return sq_err


def train_iteration(net: Network, x, target, rng: np.random.Generator) -> float:
    """Present one sample and update the network in place.

    The generator is consumed for exactly one uniform per LUT connection
    (the regularization gates), drawn as a single layer-major block.
    Returns the sample's mean squared output error.
    """
    gate_u = rng.random(net.lut_connection_count())
    return _apply_iteration(net, x, target, gate_u, derivative_offsets(net.hp))


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
    ``input_coords`` is ``segment_coords(args, hp)``, read-only, for NLW
    (None for LW): layer 0's grid coordinates, so args must not change.
    """

    def __init__(self, net: Network, args: np.ndarray, vals: np.ndarray, seed: int):
        args = np.asarray(args, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if len(args) == 0:
            raise ValueError("training set is empty")
        if args.shape[1] != net.n_inputs or vals.shape[1] != net.n_outputs:
            raise ValueError(
                f"dataset is {args.shape[1]} -> {vals.shape[1]} but the network is "
                f"{net.n_inputs} -> {net.n_outputs}")
        if not (np.isfinite(args).all() and np.isfinite(vals).all()):
            finite = np.isfinite(args).all(axis=1) & np.isfinite(vals).all(axis=1)
            raise ValueError(f"training data row {int(np.argmin(finite))} has a non-finite value")
        self.net = net
        self.args = args
        self.vals = vals
        self.seed = int(seed)
        self.iteration = 0
        self.gate_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 1])))
        self._offsets = derivative_offsets(net.hp)
        self.input_coords = None if net.luts is None else segment_coords(args, net.hp)
        for arr in self.input_coords or ():
            arr.setflags(write=False)
        self._order = None
        self._order_epoch = -1

    def gate_state(self) -> dict:
        return self.gate_rng.bit_generator.state

    def restore(self, iteration: int, gate_state: dict) -> None:
        self.iteration = int(iteration)
        self.gate_rng.bit_generator.state = gate_state

    def _epoch_order(self, epoch: int) -> np.ndarray:
        if epoch != self._order_epoch:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([self.seed, 2, epoch])))
            self._order = rng.permutation(len(self.args))
            self._order_epoch = epoch
        return self._order

    def run(self, iterations: int, log_every: int = 1000, on_log=None,
            checkpoint_every: int | None = None, on_checkpoint=None,
            stop_when=None) -> list[tuple[int, float]]:
        """Train for a number of iterations.

        on_log(trainer, window_mse) fires every log_every iterations
        with the mean per-sample error since the previous log point;
        on_checkpoint(trainer) fires every checkpoint_every iterations.
        stop_when(trainer), polled at log points, ends the run early.
        Returns the log rows as (iteration, window mse) pairs.
        """
        for name, every in (("log_every", log_every), ("checkpoint_every", checkpoint_every)):
            if every is not None and every < 0:
                raise ValueError(f"{name} must be non-negative, got {every}")
        net = self.net
        n = len(self.args)
        n_gate = net.lut_connection_count()
        coords = self.input_coords
        end = self.iteration + int(iterations)
        rows: list[tuple[int, float]] = []
        window_sum = 0.0
        window_n = 0
        while self.iteration < end:
            epoch, pos = divmod(self.iteration, n)
            order = self._epoch_order(epoch)
            block = min(end - self.iteration, n - pos)
            if log_every:
                next_log = log_every - self.iteration % log_every
                block = min(block, next_log)
            if checkpoint_every:
                next_ck = checkpoint_every - self.iteration % checkpoint_every
                block = min(block, next_ck)
            gate_u = self.gate_rng.random((block, n_gate))
            for b in range(block):
                idx = order[pos + b]
                at0 = None if coords is None else (coords[0][idx], coords[1][idx])
                err = _apply_iteration(net, self.args[idx], self.vals[idx],
                                       gate_u[b], self._offsets, at0)
                window_sum += err
                window_n += 1
                if not math.isfinite(err):
                    self.iteration += b + 1
                    where = find_nonfinite(net) or "network outputs"
                    raise TrainingDiverged(
                        f"non-finite value in {where} at iteration {self.iteration}")
            self.iteration += block
            at_log = log_every and self.iteration % log_every == 0
            if at_log or self.iteration == end:
                bad = find_nonfinite(net)
                if bad is not None:
                    raise TrainingDiverged(
                        f"non-finite value in {bad} at iteration {self.iteration}")
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
        return rows
