"""Regularization: update gain shaping, visit tables, and diffusion.

Diffusion is the characteristic operation here. Each adjacent pair of
LUT entries exchanges value toward the pair mean, with the amount
smoothly bounded and split asymmetrically by the ratio of the two
entries' visit counts: the rarely visited side moves further. Visit
tables themselves diffuse the same way, minus the smooth bound.

The pair formulas are written once, in ``_visit_ratios``, ``_pair_core``
and ``_assemble_pairs``; the scalar API and the training loop both
call those three directly, and ``_gain_decay`` and
``_update_visits_tensor`` likewise serve both.
"""
from __future__ import annotations

import numpy as np

from .core import segment_coords
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

def _update_visits_tensor(vis: np.ndarray, lo, frac, hp: Hyperparameters, cols) -> None:
    """Decay-and-bump on a (n_out, n_in, r) visit tensor, in place.

    lo/frac locate the traversed segment per input column. Every entry
    decays and is floored at v_min; the two segment endpoints are then
    bumped in proportion to their interpolation shares, each bump scaled
    by the entry's pre-decay headroom below 1. A fraction of exactly 0
    or 1 turns one of the bumps into a multiplication by 1. cols picks
    the source column of each input, as for ``core._lut_read``.
    """
    pre_lo = vis[:, cols, lo]
    pre_hi = vis[:, cols, lo + 1]
    vis *= 1.0 - hp.r_c
    np.maximum(vis, hp.v_min, out=vis)
    vis[:, cols, lo] *= 1.0 + (hp.r_c * (1.0 - frac)) * (1.0 - pre_lo)
    vis[:, cols, lo + 1] *= 1.0 + (hp.r_c * frac) * (1.0 - pre_hi)


def update_visits(visits, x: float, hp: Hyperparameters) -> np.ndarray:
    """Updated copy of one visit table after traversing it at input x."""
    visits = np.array(visits, dtype=float)
    if visits.shape != (hp.r_res,):
        raise ValueError(f"expected {hp.r_res} visit entries, got shape {visits.shape}")
    lo, frac = segment_coords(np.asarray([x], dtype=float), hp)
    _update_visits_tensor(visits[None, None], lo, frac, hp, 0)
    return visits


# ---------------------------------------------------------------------------
# Diffusion

def _pair_core(vals: np.ndarray, p: np.ndarray, pinv: np.ndarray,
               hp: Hyperparameters, smooth: bool):
    """Low/high replacement values for every adjacent pair along the last axis.

    For pair j the low side L[j] replaces entry j and the high side
    H[j] replaces entry j+1. The transfer toward the pair mean is the
    smoothly bounded gap (or the raw half-gap when smoothing is off or
    its coefficient is zero), divided on each side by one plus the
    balance coefficient times that side's visit ratio p (resp. the
    directly computed inverse ratio pinv).
    """
    a = vals[..., :-1]
    b = vals[..., 1:]
    d = b - a
    m = (a + b) * 0.5
    if smooth and hp.r_a != 0.0:
        t = np.tanh(hp.r_a * d) / (2.0 * hp.r_a)
    else:
        t = d * 0.5
    low = m - t / (1.0 + hp.r_b * p)
    high = m + t / (1.0 + hp.r_b * pinv)
    return low, high


def _visit_ratios(vis: np.ndarray):
    """Adjacent visit ratios and their elementwise-quotient inverses."""
    return vis[..., 1:] / vis[..., :-1], vis[..., :-1] / vis[..., 1:]


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
    p, pinv = _visit_ratios(np.array([v_lo, v_hi]))
    low, high = _pair_core(np.array([w_lo, w_hi]), p, pinv, hp, smooth)
    return float(low[0]), float(high[0])


def diffuse_lut(values, visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a LUT, driven by its visit table."""
    values = np.asarray(values, dtype=float)
    visits = np.asarray(visits, dtype=float)
    if values.shape != (hp.r_res,) or visits.shape != (hp.r_res,):
        raise ValueError("LUT and visit table must both have r_res entries")
    p, pinv = _visit_ratios(visits)
    return _assemble_pairs(*_pair_core(values, p, pinv, hp, smooth=True))


def diffuse_visits(visits, hp: Hyperparameters) -> np.ndarray:
    """Diffused copy of a visit table, re-floored at v_min."""
    visits = np.asarray(visits, dtype=float)
    if visits.shape != (hp.r_res,):
        raise ValueError(f"expected {hp.r_res} visit entries, got shape {visits.shape}")
    p, pinv = _visit_ratios(visits)
    out = _assemble_pairs(*_pair_core(visits, p, pinv, hp, smooth=False))
    np.maximum(out, hp.v_min, out=out)
    return out
