"""Regularization: update gain shaping, visit tables, and diffusion.

Diffusion is the characteristic operation here. Each adjacent pair of
LUT entries exchanges value toward the pair mean, with the amount
smoothly bounded and split asymmetrically by the ratio of the two
entries' visit counts: the rarely visited side moves further. Visit
tables themselves diffuse the same way, minus the smooth bound.

``_diffuse_rows_numpy`` is the one numpy statement of the rule, the
training loop's gated diffusion in numpy. ``_diffuse_rows`` runs the
compiled kernel's call bound in the network's workspace in its place when
the kernel loads; both give the same bits. The scalar forms
(``diffuse_lut``, ``diffuse_visits``, ``diffusion_pair``) run it on a
one-row table at visit scale 1 and refuse visit values that are not
finite or fall below v_min.
``_gain_decay`` and ``_update_visits_tensor`` serve the scalar API and
the loop alike.

Visit tables are stored divided by a shared scale (see ``Network``), so
the per-iteration decay of a whole table is one multiplication of that
scale, and the visit update writes only the two entries bracketing each
traversed segment.
"""
from __future__ import annotations

import numpy as np

from .core import _segment_ends, _settle_visits, _table, segment_coords
from .hyper import Hyperparameters


def _gain_decay(w, dw, hp: Hyperparameters):
    """Gain-shaped update, vectorized.

    Scales a raw update so repeated same-sign steps on a weight grow it
    exponentially while opposing steps shrink it; reduces to the raw
    update when the gain is off or the weight is zero. The exponent is
    clamped to [-50, 50] to keep the transform finite. Result
    broadcasts against w.
    """
    if hp.s_a == 0.0:
        return dw
    den = np.asarray(hp.s_a * w)
    arg = np.maximum(den * dw, -50.0)
    np.minimum(arg, 50.0, out=arg)
    num = np.expm1(arg, out=arg)
    if np.count_nonzero(den) < den.size:     # a zero weight takes the raw update
        zero = den == 0.0
        return np.where(zero, dw, num / np.where(zero, 1.0, den))
    num /= den
    return num


def gain_decay(w: float, dw: float, hp: Hyperparameters) -> float:
    return float(_gain_decay(np.array([w], dtype=float), np.array([dw], dtype=float), hp)[0])


# ---------------------------------------------------------------------------
# Visit tables

def _update_visits_tensor(pair: np.ndarray, share: np.ndarray, scale: float,
                          new_scale: float, hp: Hyperparameters) -> None:
    """Decay-and-bump of the visit entries bracketing each traversed segment.

    pair holds the stored entries at each segment's two ends, (2, C),
    at visit scale ``scale``; share holds their interpolation shares
    1 - frac and frac. Every entry of a table decays by 1 - r_c and is
    floored at v_min; the pair is additionally bumped in proportion to
    its share, each bump scaled by the entry's pre-decay headroom below
    1. The decay of the entries outside the pair is the new scale,
    new_scale = scale * (1 - r_c), which the caller keeps; pair is
    overwritten, in place, with its updated entries stored at that scale. A
    share of exactly 0 turns a bump into a multiplication by 1.
    """
    pre = _settle_visits(pair, scale, hp, out=pair)
    bump = 1.0 + (hp.r_c * share) * (1.0 - pre)
    pre *= 1.0 - hp.r_c
    np.maximum(pre, hp.v_min, out=pre)
    pre *= bump
    pre /= new_scale


def update_visits(visits, x: float, hp: Hyperparameters) -> np.ndarray:
    """Updated copy of one visit table after traversing it at input x."""
    visits = _table(visits, hp.r_res, "visit", hp)[0]
    ends, share = _segment_ends(*segment_coords(np.asarray([x], dtype=float), hp))
    pair = visits[ends]
    scale = 1.0 - hp.r_c
    _update_visits_tensor(pair, share, 1.0, scale, hp)
    visits[ends] = pair
    return _settle_visits(visits, scale, hp, out=visits)


# ---------------------------------------------------------------------------
# Diffusion

def diffusion_pair(w_lo: float, w_hi: float, v_lo: float, v_hi: float,
                   hp: Hyperparameters) -> tuple[float, float]:
    """Replacement pair for two adjacent entries with given visit counts."""
    lut = np.array([[w_lo, w_hi]], dtype=float)
    _diffuse_rows_numpy(lut, _table([v_lo, v_hi], 2, "visit", hp), [0], 1.0, hp)
    return float(lut[0, 0]), float(lut[0, 1])


def diffuse_lut(values, visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a LUT, driven by its visit table."""
    lut = _table(values, hp.r_res, "LUT", hp)
    _diffuse_rows_numpy(lut, _table(visits, hp.r_res, "visit", hp), [0], 1.0, hp)
    return lut[0]


def diffuse_visits(visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a visit table, re-floored at v_min."""
    vis = _table(visits, hp.r_res, "visit", hp)
    _diffuse_rows_numpy(np.zeros_like(vis), vis, [0], 1.0, hp)
    return vis[0]


def _diffuse_rows(ws, n_hit: int, scale: float, hp: Hyperparameters) -> None:
    """Diffuse the gated rows ws.hit[:n_hit] of a network's tables in place.

    ws is the network's ``core.Workspace``; its visits are stored at visit
    scale ``scale``. Each row's LUT diffuses smoothly and its visit table
    linearly, both with the balance denominators of its settled visits; the
    new visits are floored at v_min and stored back at ``scale``. Runs the
    kernel's call bound in ws when there is one and it takes the rows, else
    ``_diffuse_rows_numpy``; both give the same bits. The bound call sets
    ``ws.check_due[0]`` when it writes a value that is not finite; numpy's
    form sets it whenever it runs.
    """
    if ws.diffuse is None or ws.diffuse(n_hit, scale):
        _diffuse_rows_numpy(ws.luts, ws.visits, ws.hit[:n_hit], scale, hp)
        ws.check_due[0] = 1


def _diffuse_rows_numpy(luts: np.ndarray, visits: np.ndarray, hit: np.ndarray, scale: float,
                        hp: Hyperparameters) -> None:
    """``_diffuse_rows`` in numpy: the reference the kernel matches, and its fallback.

    Pair j's balance denominators are 1 + r_b * p low and 1 + r_b / p high,
    p = v[j + 1] / v[j] (its inverse taken directly), for both tables.
    """
    vis = _settle_visits(visits[hit], scale, hp)
    lo, hi = vis[:, :-1], vis[:, 1:]
    den_lo = 1.0 + hp.r_b * (hi / lo)
    den_hi = 1.0 + hp.r_b * (lo / hi)
    luts[hit] = _diffuse_pairs(luts[hit], den_lo, den_hi, hp.r_a)
    vis = _diffuse_pairs(vis, den_lo, den_hi, 0.0)
    np.maximum(vis, hp.v_min, out=vis)
    vis /= scale
    visits[hit] = vis


def _diffuse_pairs(rows: np.ndarray, den_lo, den_hi, r_a: float) -> np.ndarray:
    """Rows with every adjacent pair moved toward its mean, then recombined.

    Pair j, gap d and mean m, gives m - t / den_lo[j] and m + t / den_hi[j],
    with t = tanh(r_a * d) / (2 r_a), or d / 2 at r_a = 0. The end entries
    keep their one pair's value; every other entry averages its two.
    """
    a, b = rows[:, :-1], rows[:, 1:]
    d = b - a
    m = (a + b) * 0.5
    t = np.tanh(r_a * d) / (2.0 * r_a) if r_a != 0.0 else d * 0.5
    high = t / den_hi                   # in place where numpy can: fewer live temporaries
    high += m
    t /= den_lo
    low = np.subtract(m, t, out=m)
    out = np.empty_like(rows)
    out[:, 0] = low[:, 0]
    out[:, -1] = high[:, -1]
    out[:, 1:-1] = (low[:, 1:] + high[:, :-1]) * 0.5
    return out
