"""Scalar reference implementation of one training iteration.

Everything here is deliberately written with per-connection Python
loops and plain floats, mirroring the update rules as stated rather
than the vectorized production code. The consistency tests drive both
implementations with identical samples and gate draws and require the
parameters to stay together to ~1e-9 over dozens of iterations, and
within a relative 1e-9 (``relative_gap``) over thousands.
"""
from __future__ import annotations

import math

from lutnet.core import Network
from lutnet.hyper import Hyperparameters, KIND_NLW


# ---------------------------------------------------------------------------
# Parameter extraction

def _layer_visits(net: Network) -> list:
    """Per layer, the visit values (n_out, n_in, r_res), or None for LW.

    The network stores its visit tables scaled (see ``Network``); the
    reference keeps the values themselves.
    """
    if net.visits is None:
        return [None] * len(net.layers)
    settled = net.settled_visits()
    out, c = [], 0
    for lay in net.layers:
        out.append(settled[c:c + lay.lut.shape[0] * lay.lut.shape[1]].reshape(lay.lut.shape))
        c += lay.lut.shape[0] * lay.lut.shape[1]
    return out


def extract_params(net: Network) -> list[dict]:
    """Deep-copy a network's parameters into plain Python structures."""
    layers = []
    for lay, visits in zip(net.layers, _layer_visits(net)):
        entry = {
            "w": [[float(v) for v in row] for row in lay.w],
            "bias": [float(v) for v in lay.bias],
            "lut": None,
            "visits": None,
        }
        if lay.lut is not None:
            entry["lut"] = [[[float(v) for v in t] for t in row] for row in lay.lut]
            entry["visits"] = [[[float(v) for v in t] for t in row] for row in visits]
        layers.append(entry)
    return layers


def _param_pairs(params: list[dict], net: Network):
    """Yield (reference, network) values of every parameter."""
    for entry, lay, visits in zip(params, net.layers, _layer_visits(net)):
        for d in range(lay.n_out):
            yield entry["bias"][d], float(lay.bias[d])
            for s in range(lay.n_in):
                yield entry["w"][d][s], float(lay.w[d][s])
                if entry["lut"] is not None:
                    for j in range(len(entry["lut"][d][s])):
                        yield entry["lut"][d][s][j], float(lay.lut[d, s, j])
                        yield entry["visits"][d][s][j], float(visits[d, s, j])


def _worst(gaps) -> float:
    """The largest gap, or NaN if any gap is NaN (``max`` would skip it)."""
    gaps = list(gaps)
    return math.nan if any(map(math.isnan, gaps)) else max(gaps)


def max_param_difference(params: list[dict], net: Network) -> float:
    """Largest absolute parameter gap between reference and network."""
    return _worst(abs(ref - got) for ref, got in _param_pairs(params, net))


def relative_gap(ref: float, got: float) -> float:
    """|got - ref| / max(1, |ref|): the gap relative to values above 1."""
    return abs(got - ref) / max(1.0, abs(ref))


def max_relative_param_difference(params: list[dict], net: Network) -> float:
    """Largest ``relative_gap`` of any parameter between reference and network."""
    return _worst(relative_gap(ref, got) for ref, got in _param_pairs(params, net))


# ---------------------------------------------------------------------------
# Scalar LUT reads

def ref_segment(x: float, hp: Hyperparameters) -> tuple[int, float]:
    clamped = min(max(x, hp.i_min), hp.i_max)
    pos = (clamped - hp.i_min) / (hp.i_max - hp.i_min) * (hp.r_res - 1)
    lo = min(int(math.floor(pos)), hp.r_res - 2)
    return lo, pos - lo


def ref_interpolate(table: list[float], x: float, hp: Hyperparameters) -> float:
    lo, frac = ref_segment(x, hp)
    return (1.0 - frac) * table[lo] + frac * table[lo + 1]


def ref_offsets(hp: Hyperparameters) -> list[float]:
    offs = []
    a = hp.a_l
    while True:
        offs.append(a)
        if a * hp.a_m > hp.a_h:
            return offs
        a *= hp.a_m


def ref_lut_slope(table: list[float], x: float, hp: Hyperparameters) -> float:
    """Mean symmetric difference quotient over the probe offsets."""
    total = 0.0
    count = 0
    for a in ref_offsets(hp):
        hi = min(max(x + a, hp.i_min), hp.i_max)
        lo = min(max(x - a, hp.i_min), hp.i_max)
        if hi == lo:
            continue
        total += (ref_interpolate(table, hi, hp) - ref_interpolate(table, lo, hp)) / (hi - lo)
        count += 1
    return total / max(count, 1)


# ---------------------------------------------------------------------------
# Forward and backward

def ref_forward(params: list[dict], x, hp: Hyperparameters, kind: str):
    """Activations per layer (input layer passes through unchanged)."""
    acts = [[float(v) for v in x]]
    for entry in params:
        prev = acts[-1]
        out = []
        for d in range(len(entry["bias"])):
            u = entry["bias"][d]
            for s, value in enumerate(prev):
                u += entry["w"][d][s] * value
                if kind == KIND_NLW:
                    u += ref_interpolate(entry["lut"][d][s], value, hp)
            out.append(math.tanh(u))
        acts.append(out)
    return acts


def ref_deltas(params, acts, target, hp: Hyperparameters, kind: str):
    """Per-node error terms, output layer last."""
    top = [
        (y - float(d)) * (1.0 - y * y)
        for y, d in zip(acts[-1], target)
    ]
    deltas = [top]
    for li in range(len(params) - 1, 0, -1):
        entry = params[li]
        below = []
        for s, y in enumerate(acts[li]):
            back = 0.0
            for d, delta in enumerate(deltas[0]):
                dodi = entry["w"][d][s]
                if kind == KIND_NLW:
                    dodi += ref_lut_slope(entry["lut"][d][s], y, hp)
                back += delta * dodi
            below.append(back * (1.0 - y * y))
        deltas.insert(0, below)
    return deltas


def ref_gain(w: float, dw: float, hp: Hyperparameters) -> float:
    if hp.s_a == 0.0:
        return dw
    den = hp.s_a * w
    if den == 0.0:
        return dw
    arg = min(max(den * dw, -50.0), 50.0)
    return math.expm1(arg) / den


# ---------------------------------------------------------------------------
# One full iteration

def ref_iteration(params, x, target, gate_u, hp: Hyperparameters, kind: str) -> float:
    """Mutates params in place; returns the sample's mean squared error."""
    acts = ref_forward(params, x, hp, kind)
    deltas = ref_deltas(params, acts, target, hp, kind)
    sq = sum((y - float(d)) ** 2 for y, d in zip(acts[-1], target)) / len(target)

    keep = 1.0 - hp.s_b
    gate_pos = 0
    for li, entry in enumerate(params):
        inputs = acts[li]
        for d, delta in enumerate(deltas[li]):
            e = delta
            for s, value in enumerate(inputs):
                dw = -ref_gain(entry["w"][d][s], hp.mu * e * value, hp)
                if kind == KIND_NLW:
                    dw *= hp.nu
                entry["w"][d][s] = keep * (entry["w"][d][s] + dw)
            db = -ref_gain(entry["bias"][d], hp.mu * e, hp)
            entry["bias"][d] = keep * (entry["bias"][d] + db)

        if kind != KIND_NLW:
            continue

        # LUT entry updates: only the traversed segment's two endpoints move
        for d, delta in enumerate(deltas[li]):
            for s, value in enumerate(inputs):
                table = entry["lut"][d][s]
                lo, frac = ref_segment(value, hp)
                current = (1.0 - frac) * table[lo] + frac * table[lo + 1]
                dwr = -ref_gain(current, hp.mu * delta, hp)
                den = 2.0 * frac * frac - 2.0 * frac + 1.0
                table[lo] += dwr * ((1.0 - frac) / den)
                table[lo + 1] += dwr * (frac / den)

        # visit decay over every entry, then endpoint bumps from pre-decay values
        for d in range(len(entry["bias"])):
            for s, value in enumerate(inputs):
                vis = entry["visits"][d][s]
                lo, frac = ref_segment(value, hp)
                pre_lo, pre_hi = vis[lo], vis[lo + 1]
                for j in range(hp.r_res):
                    vis[j] = max((1.0 - hp.r_c) * vis[j], hp.v_min)
                vis[lo] *= 1.0 + (hp.r_c * (1.0 - frac)) * (1.0 - pre_lo)
                vis[lo + 1] *= 1.0 + (hp.r_c * frac) * (1.0 - pre_hi)

        # gate draws are layer-major, row-major within the layer
        for d in range(len(entry["bias"])):
            for s, value in enumerate(inputs):
                gated = hp.zeta > gate_u[gate_pos]
                gate_pos += 1
                if not gated:
                    continue
                table = entry["lut"][d][s]
                vis = entry["visits"][d][s]
                lo, frac = ref_segment(value, hp)
                if frac < 1.0:
                    table[lo] *= keep
                if frac > 0.0:
                    table[lo + 1] *= keep
                new_table = _ref_diffuse(table, vis, hp, smooth=True)
                new_vis = _ref_diffuse(vis, vis, hp, smooth=False)
                entry["lut"][d][s] = new_table
                entry["visits"][d][s] = [max(v, hp.v_min) for v in new_vis]
    return sq


def _ref_diffuse(values, vis, hp: Hyperparameters, smooth: bool):
    lows, highs = [], []
    for j in range(hp.r_res - 1):
        a, b = values[j], values[j + 1]
        d = b - a
        m = (a + b) * 0.5
        if smooth and hp.r_a != 0.0:
            t = math.tanh(hp.r_a * d) / (2.0 * hp.r_a)
        else:
            t = d * 0.5
        p = vis[j + 1] / vis[j]
        pinv = vis[j] / vis[j + 1]
        lows.append(m - t / (1.0 + hp.r_b * p))
        highs.append(m + t / (1.0 + hp.r_b * pinv))
    out = [0.0] * hp.r_res
    out[0] = lows[0]
    out[-1] = highs[-1]
    for j in range(1, hp.r_res - 1):
        out[j] = (lows[j] + highs[j - 1]) * 0.5
    return out


def _ref_diffuse_reciprocal(values, vis, hp: Hyperparameters, smooth: bool):
    """``_ref_diffuse`` as training runs it (``regularize._diffuse_rows_numpy``): each
    pair's transfer is scaled by its balance shares v_lo / (v_lo + r_b * v_hi) and
    v_hi / (v_hi + r_b * v_lo), the paper's two balance factors in a form with two
    divisions, so its last bits may differ from ``_ref_diffuse``'s."""
    lows, highs = [], []
    for j in range(hp.r_res - 1):
        a, b = values[j], values[j + 1]
        d = b - a
        m = (a + b) * 0.5
        if smooth and hp.r_a != 0.0:
            s = math.tanh(hp.r_a * d) * (1.0 / (2.0 * hp.r_a))
        else:
            s = d * 0.5
        v_lo, v_hi = vis[j], vis[j + 1]
        lows.append(m - s * (v_lo / (v_lo + hp.r_b * v_hi)))
        highs.append(m + s * (v_hi / (v_hi + hp.r_b * v_lo)))
    out = [0.0] * hp.r_res
    out[0] = lows[0]
    out[-1] = highs[-1]
    for j in range(1, hp.r_res - 1):
        out[j] = (lows[j] + highs[j - 1]) * 0.5
    return out
