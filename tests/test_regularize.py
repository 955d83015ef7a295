"""Decay transforms, visit bookkeeping, and table diffusion."""
import math

import numpy as np
import pytest

from lutnet.hyper import Hyperparameters, default_hyperparameters
from lutnet.regularize import (
    diffuse_lut,
    diffuse_visits,
    diffusion_pair,
    gain_decay,
    update_visits,
)


NLW = default_hyperparameters("NLW")


# ---------------------------------------------------------------------------
# Decay transforms

def test_gain_decay_frozen_values():
    hp = Hyperparameters(s_a=1.0)
    assert gain_decay(1.0, 0.1, hp) == 0.10517091807564763
    assert gain_decay(2.0, -0.05, hp) == -0.04758129098202021


def test_gain_decay_passthrough_cases():
    off = Hyperparameters(s_a=0.0)
    assert gain_decay(5.0, -0.3, off) == -0.3
    on = Hyperparameters(s_a=1.0)
    # zero weight: the shaping denominator vanishes, raw update survives
    assert gain_decay(0.0, 0.7, on) == 0.7


def test_gain_decay_small_updates_are_nearly_raw():
    hp = Hyperparameters(s_a=1.0)
    out = gain_decay(0.5, 1e-9, hp)
    assert abs(out - 1e-9) < 1e-17


def test_gain_decay_exponent_clamped():
    hp = Hyperparameters(s_a=1.0)
    big = gain_decay(1e6, 1.0, hp)
    assert math.isfinite(big)
    assert big == math.expm1(50.0) / 1e6
    small = gain_decay(1e6, -1.0, hp)
    assert small == math.expm1(-50.0) / 1e6


def test_gain_decay_amplifies_aligned_updates():
    hp = Hyperparameters(s_a=1.0)
    # same-sign weight and update: the step grows; opposing: it shrinks
    assert gain_decay(1.0, 0.1, hp) > 0.1
    assert abs(gain_decay(1.0, -0.1, hp)) < 0.1


# ---------------------------------------------------------------------------
# Visit tables

# Two-entry table on [0, 1] gives exact fractional positions.
TWO = Hyperparameters(r_res=2, i_min=0.0, i_max=1.0, r_c=0.001, v_p=0.1)


def test_update_visits_frozen_values():
    dec = (1.0 - 0.001) * 0.1
    out = update_visits(np.full(2, 0.1), 0.5, TWO)
    # mid-segment: both endpoints share the bump equally
    expect = dec * (1.0 + 0.001 * 0.5 * (1.0 - 0.1))
    assert np.allclose(out, expect, rtol=0, atol=1e-18)

    out = update_visits(np.full(2, 0.1), 0.0, TWO)
    assert out[0] == dec * (1.0 + 0.001 * 1.0 * (1.0 - 0.1))
    assert out[1] == dec            # share 0 multiplies by exactly 1

    out = update_visits(np.full(2, 0.1), 1.0, TWO)
    assert out[0] == dec
    assert out[1] == dec * (1.0 + 0.001 * 1.0 * (1.0 - 0.1))


def test_update_visits_returns_copy():
    vis = np.full(NLW.r_res, NLW.v_p)
    out = update_visits(vis, 0.3, NLW)
    assert out is not vis
    assert np.all(vis == NLW.v_p)


def test_update_visits_floor_and_ceiling():
    rng = np.random.default_rng(2)
    vis = rng.uniform(NLW.v_min, 1.0, NLW.r_res)
    for _ in range(500):
        vis = update_visits(vis, rng.uniform(-1.5, 1.5), NLW)
        assert np.all(vis >= NLW.v_min)
        assert np.all(vis < 1.0)


def test_update_visits_tiny_values_pinned_at_floor():
    hp = Hyperparameters(r_res=4, v_min=1e-16, r_c=0.001)
    vis = np.full(4, 1e-16)
    out = update_visits(vis, -1.0, hp)
    # decay would push below the floor; untraversed entries sit exactly on it
    assert np.all(out[2:] == 1e-16)
    assert out[0] > 1e-16


def test_update_visits_rejects_wrong_length():
    with pytest.raises(ValueError):
        update_visits(np.full(3, 0.1), 0.0, NLW)


# ---------------------------------------------------------------------------
# Diffusion

def test_diffusion_pair_frozen_balanced_case():
    hp = Hyperparameters(r_a=0.0, r_b=1.0)
    low, high = diffusion_pair(0.0, 1.0, 0.3, 0.3, hp)
    assert (low, high) == (0.25, 0.75)


def test_diffusion_pair_mean_conserved_without_balance():
    hp = Hyperparameters(r_b=0.0, r_a=1e-4)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        a, b = rng.normal(scale=2.0, size=2)
        va, vb = rng.uniform(1e-16, 1.0, size=2)
        low, high = diffusion_pair(a, b, va, vb, hp)
        assert abs((low + high) / 2 - (a + b) / 2) <= 1e-12


def test_diffusion_pair_contracts_and_stays_bounded():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        hp = Hyperparameters(r_a=float(rng.uniform(0, 0.01)),
                             r_b=float(rng.uniform(0, 1.0)))
        a, b = rng.normal(scale=2.0, size=2)
        va, vb = rng.uniform(1e-16, 1.0, size=2)
        low, high = diffusion_pair(a, b, va, vb, hp)
        lo, hi = min(a, b), max(a, b)
        assert abs(high - low) <= abs(b - a) + 1e-15
        assert lo - 1e-12 <= low <= hi + 1e-12
        assert lo - 1e-12 <= high <= hi + 1e-12


def test_diffusion_pulls_unvisited_side_toward_mean():
    hp = Hyperparameters(r_a=1e-4, r_b=1e-4)
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, b = rng.normal(scale=1.0, size=2)
        if abs(b - a) < 1e-6:
            continue
        # low side heavily visited, high side untouched
        low, high = diffusion_pair(a, b, 0.9, 1e-12, hp)
        assert abs(high - b) > abs(low - a)
        # and symmetrically the other way round
        low2, high2 = diffusion_pair(a, b, 1e-12, 0.9, hp)
        assert abs(low2 - a) > abs(high2 - b)


def test_diffusion_smoothing_shrinks_transfer():
    hp = Hyperparameters(r_a=1e-4, r_b=0.0)
    low, high = diffusion_pair(0.0, 1.0, 0.5, 0.5, hp)
    gap = high - low
    assert gap < 1.0                       # tanh bound is strict
    assert 1.0 - gap < 1e-7                # but nearly the full gap at this scale
    # smoothing off reproduces the raw half-gap exactly
    low, high = diffusion_pair(0.0, 1.0, 0.5, 0.5, hp, smooth=False)
    assert (low, high) == (0.0, 1.0)


def test_diffuse_lut_identity_when_disabled():
    hp = NLW.replace(r_a=0.0, r_b=0.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=hp.r_res)
    vis = rng.uniform(1e-16, 1.0, hp.r_res)
    out = diffuse_lut(vals, vis, hp)
    assert np.allclose(out, vals, rtol=0, atol=1e-12)


def test_diffuse_lut_preserves_monotone_order():
    rng = np.random.default_rng(7)
    vals = np.sort(rng.normal(size=NLW.r_res))
    vis = rng.uniform(1e-16, 1.0, NLW.r_res)
    out = diffuse_lut(vals, vis, NLW)
    assert np.all(np.diff(out) >= -1e-12)
    # every value stays within the original range
    assert out.min() >= vals.min() - 1e-12
    assert out.max() <= vals.max() + 1e-12


def test_diffuse_visits_identity_without_balance():
    hp = NLW.replace(r_b=0.0)
    rng = np.random.default_rng(8)
    vis = rng.uniform(1e-16, 1.0, hp.r_res)
    out = diffuse_visits(vis, hp)
    assert np.allclose(out, vis, rtol=0, atol=1e-12)


def test_diffuse_visits_floors_and_bounds():
    rng = np.random.default_rng(9)
    for _ in range(200):
        vis = rng.uniform(1e-16, 1.0, NLW.r_res)
        out = diffuse_visits(vis, NLW)
        assert np.all(out >= NLW.v_min)
        assert out.max() <= vis.max() + 1e-12


def test_diffuse_shape_validation():
    with pytest.raises(ValueError):
        diffuse_lut(np.zeros(8), np.full(NLW.r_res, 0.1), NLW)
    with pytest.raises(ValueError):
        diffuse_visits(np.full(8, 0.1), NLW)
