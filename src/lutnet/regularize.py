"""Regularization: update gain shaping, visit tables, and diffusion.

Diffusion is the characteristic operation here. Each adjacent pair of
LUT entries exchanges value toward the pair mean, with the amount
smoothly bounded and split asymmetrically by the ratio of the two
entries' visit counts: the rarely visited side moves further. Visit
tables themselves diffuse the same way, minus the smooth bound.

The pair formulas are written once, in ``_visit_ratios``, ``_pair_core``
and ``_assemble_pairs``: the scalar API calls those three, and so does
``_diffuse_rows_numpy``, the numpy form of the training loop's gated
diffusion. ``_diffuse_rows`` runs the compiled kernel (``lutnet.kernel``)
in its place when it loads; both give the same bits. ``_gain_decay`` and
``_update_visits_tensor`` serve the scalar API and the loop alike.

Visit tables are stored divided by a shared scale (see ``Network``), so
the per-iteration decay of a whole table is one multiplication of that
scale, and the visit update writes only the two entries bracketing each
traversed segment.
"""
from __future__ import annotations

import numpy as np

from . import kernel
from .core import _segment_ends, _settle_visits, segment_coords
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
    zero = den == 0.0
    if zero.any():
        return np.where(zero, dw, num / np.where(zero, 1.0, den))
    num /= den
    return num


def gain_decay(w: float, dw: float, hp: Hyperparameters) -> float:
    return float(_gain_decay(np.array([w], dtype=float), np.array([dw], dtype=float), hp)[0])


# ---------------------------------------------------------------------------
# Visit tables

def _update_visits_tensor(pair: np.ndarray, share: np.ndarray, scale: float,
                          hp: Hyperparameters) -> float:
    """Decay-and-bump of the visit entries bracketing each traversed segment.

    pair holds the stored entries at each segment's two ends, (2, C),
    at visit scale ``scale``; share holds their interpolation shares
    1 - frac and frac. Every entry of a table decays by 1 - r_c and is
    floored at v_min; the pair is additionally bumped in proportion to
    its share, each bump scaled by the entry's pre-decay headroom below
    1. The decay of the entries outside the pair is the new scale,
    scale * (1 - r_c), which is returned; pair is overwritten, in place,
    with its updated entries stored at that scale. A share of exactly 0
    turns a bump into a multiplication by 1.
    """
    new_scale = scale * (1.0 - hp.r_c)
    pre = _settle_visits(pair, scale, hp, out=pair)
    bump = 1.0 + (hp.r_c * share) * (1.0 - pre)
    pre *= 1.0 - hp.r_c
    np.maximum(pre, hp.v_min, out=pre)
    pre *= bump
    pre /= new_scale
    return new_scale


def update_visits(visits, x: float, hp: Hyperparameters) -> np.ndarray:
    """Updated copy of one visit table after traversing it at input x."""
    visits = np.array(visits, dtype=float)
    if visits.shape != (hp.r_res,):
        raise ValueError(f"expected {hp.r_res} visit entries, got shape {visits.shape}")
    ends, share = _segment_ends(*segment_coords(np.asarray([x], dtype=float), hp))
    pair = visits[ends]
    scale = _update_visits_tensor(pair, share, 1.0, hp)
    visits[ends] = pair
    return _settle_visits(visits, scale, hp, out=visits)


# ---------------------------------------------------------------------------
# Diffusion

def _pair_core(vals: np.ndarray, den_lo: np.ndarray, den_hi: np.ndarray,
               hp: Hyperparameters, smooth: bool):
    """Low/high replacement values for every adjacent pair along the last axis.

    For pair j the low side L[j] replaces entry j and the high side
    H[j] replaces entry j+1. The transfer toward the pair mean is the
    smoothly bounded gap (or the raw half-gap when smoothing is off or
    its coefficient is zero), divided on each side by that side's
    balance denominator from ``_visit_ratios``.
    """
    a = vals[..., :-1]
    b = vals[..., 1:]
    d = b - a
    m = (a + b) * 0.5
    if smooth and hp.r_a != 0.0:
        t = np.tanh(hp.r_a * d) / (2.0 * hp.r_a)
    else:
        t = d * 0.5
    low = m - t / den_lo
    high = m + t / den_hi
    return low, high


def _visit_ratios(vis: np.ndarray, hp: Hyperparameters):
    """Balance denominators 1 + r_b*p of every adjacent pair along the last axis.

    p is the ratio of the high entry's visit count to the low one's on
    the low side, and the directly computed inverse ratio on the high
    side. A LUT and its visit table diffuse with the same denominators.
    """
    lo = vis[..., :-1]
    hi = vis[..., 1:]
    return 1.0 + hp.r_b * (hi / lo), 1.0 + hp.r_b * (lo / hi)


def _assemble_pairs(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Recombine pair values: edges keep their single side, interiors average."""
    shape = low.shape[:-1] + (low.shape[-1] + 1,)
    out = np.empty(shape)
    out[..., 0] = low[..., 0]
    out[..., -1] = high[..., -1]
    out[..., 1:-1] = (low[..., 1:] + high[..., :-1]) * 0.5
    return out


def diffusion_pair(w_lo: float, w_hi: float, v_lo: float, v_hi: float,
                   hp: Hyperparameters, smooth: bool = True) -> tuple[float, float]:
    """Replacement pair for two adjacent entries with given visit counts."""
    den_lo, den_hi = _visit_ratios(np.array([v_lo, v_hi]), hp)
    low, high = _pair_core(np.array([w_lo, w_hi]), den_lo, den_hi, hp, smooth)
    return float(low[0]), float(high[0])


def diffuse_lut(values, visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a LUT, driven by its visit table."""
    values = np.asarray(values, dtype=float)
    visits = np.asarray(visits, dtype=float)
    if values.shape != (hp.r_res,) or visits.shape != (hp.r_res,):
        raise ValueError("LUT and visit table must both have r_res entries")
    return _assemble_pairs(*_pair_core(values, *_visit_ratios(visits, hp), hp, smooth=True))


def diffuse_visits(visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a visit table, re-floored at v_min."""
    visits = np.asarray(visits, dtype=float)
    if visits.shape != (hp.r_res,):
        raise ValueError(f"expected {hp.r_res} visit entries, got shape {visits.shape}")
    out = _assemble_pairs(*_pair_core(visits, *_visit_ratios(visits, hp), hp, smooth=False))
    np.maximum(out, hp.v_min, out=out)
    return out


def _diffuse_rows(luts: np.ndarray, visits: np.ndarray, hit: np.ndarray, scale: float,
                  hp: Hyperparameters) -> None:
    """Diffuse rows hit of the (C, r_res) LUT and visit tables in place.

    visits is stored at visit scale ``scale``. Each row's LUT diffuses
    smoothly and its visit table linearly, both with the balance
    denominators of its settled visits; the new visits are floored at
    v_min and stored back at ``scale``. Runs the compiled kernel when it
    loads and takes the arguments, else ``_diffuse_rows_numpy``; both give
    the same bits.
    """
    kern = kernel.load()
    if kern is None or not kern.diffuse_rows(luts, visits, hit, scale, hp):
        _diffuse_rows_numpy(luts, visits, hit, scale, hp)


def _diffuse_rows_numpy(luts: np.ndarray, visits: np.ndarray, hit: np.ndarray, scale: float,
                        hp: Hyperparameters) -> None:
    """``_diffuse_rows`` in numpy: the reference the kernel matches, and its fallback."""
    vvals = _settle_visits(visits[hit], scale, hp)
    den_lo, den_hi = _visit_ratios(vvals, hp)
    luts[hit] = _assemble_pairs(*_pair_core(luts[hit], den_lo, den_hi, hp, smooth=True))
    new_vis = _assemble_pairs(*_pair_core(vvals, den_lo, den_hi, hp, smooth=False))
    np.maximum(new_vis, hp.v_min, out=new_vis)
    new_vis /= scale
    visits[hit] = new_vis
