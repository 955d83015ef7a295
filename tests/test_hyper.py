"""Hyperparameter defaults and validation."""
import pytest

from lutnet.hyper import Hyperparameters, default_hyperparameters


def test_nlw_defaults():
    hp = default_hyperparameters("NLW")
    assert (hp.mu, hp.nu) == (0.02, 2.5)
    assert (hp.r_res, hp.i_min, hp.i_max) == (64, -1.0, 1.0)
    assert (hp.a_l, hp.a_h, hp.a_m) == (0.15, 0.35, 1.1)
    assert (hp.zeta, hp.r_a, hp.r_b, hp.r_c) == (0.05, 1e-4, 1e-4, 0.001)
    assert (hp.v_p, hp.v_min) == (0.1, 1e-16)
    assert (hp.s_a, hp.s_b) == (1.0, 1e-9)


def test_lw_defaults_differ_only_in_decay():
    lw = default_hyperparameters("LW")
    nlw = default_hyperparameters("NLW")
    assert (lw.s_a, lw.s_b) == (0.0, 2e-7)
    assert lw.replace(s_a=nlw.s_a, s_b=nlw.s_b) == nlw


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        default_hyperparameters("XW")


def test_span_and_replace():
    hp = Hyperparameters(i_min=-2.0, i_max=3.0)
    assert hp.span == 5.0
    assert hp.replace(mu=0.5).mu == 0.5
    assert hp.mu == 0.02                      # frozen original untouched


def test_to_dict_round_trips():
    hp = default_hyperparameters("NLW").replace(r_res=16, zeta=0.2)
    assert Hyperparameters(**hp.to_dict()) == hp


@pytest.mark.parametrize("bad", [
    {"r_res": 1},
    {"i_min": 1.0, "i_max": 1.0},
    {"a_l": 0.0},
    {"a_l": 0.5, "a_h": 0.4},
    {"a_m": 1.0},
    {"zeta": 1.5},
    {"zeta": -0.1},
    {"s_b": 1.0},
    {"r_c": 1.0},
    {"v_min": 0.0},
    {"v_p": 0.0},
    {"v_p": 1.5},
    {"r_res": 64.0},
    {"r_res": True},
    {"mu": float("nan")},
    {"r_a": float("inf")},
    {"i_min": float("-inf")},
    {"mu": -0.01},
    {"r_a": -1e-4},
    {"r_b": -1.0},
    {"s_a": -1.0},
    {"mu": True},
    {"zeta": False},
])
def test_validation_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Hyperparameters(**bad)
