"""Hyperparameter defaults and validation."""
import re
from dataclasses import fields

import numpy as np
import pytest

from lutnet.core import init_network
from lutnet.hyper import MAX_PROBE_OFFSETS, Hyperparameters, default_hyperparameters
from lutnet.modelio import load_model, save_model


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


def test_numpy_scalars_are_stored_as_python_numbers_and_save(tmp_path):
    hp = Hyperparameters(zeta=np.float32(0.1), mu=np.int64(1), r_a=np.float64(2e-4))
    assert (hp.zeta, hp.mu, hp.r_a) == (float(np.float32(0.1)), 1, 2e-4)
    assert all(type(v) in (int, float) for v in hp.to_dict().values())
    net = init_network((2, 3, 1), "NLW", hp, np.random.default_rng(0))
    save_model(tmp_path / "m.json", net)
    assert load_model(tmp_path / "m.json").net.hp == hp


def test_numpy_bool_and_int_r_res_are_still_refused():
    with pytest.raises(ValueError, match="zeta must be a number"):
        Hyperparameters(zeta=np.bool_(True))
    with pytest.raises(ValueError, match="r_res must be an int"):
        Hyperparameters(r_res=np.int64(8))


def test_probe_offsets_are_the_frozen_default_ladder_read_only():
    offsets = default_hyperparameters("NLW").probe_offsets
    assert offsets.dtype == np.float64
    # each offset is the one before times a_m, so the last bits are frozen too
    assert offsets.tolist() == [
        0.15, 0.165, 0.18150000000000002, 0.19965000000000005, 0.21961500000000006,
        0.24157650000000008, 0.2657341500000001, 0.29230756500000016, 0.3215383215000002]
    with pytest.raises(ValueError, match="read-only"):
        offsets[0] = 0.2


def test_replace_rebuilds_the_probe_offsets():
    hp = default_hyperparameters("NLW")
    assert hp.replace(a_m=1.2).probe_offsets.tolist() == [0.15, 0.18, 0.216, 0.2592, 0.31104]
    assert hp.replace(a_l=0.3, a_m=1.2).probe_offsets.tolist() == [0.3]
    assert len(hp.probe_offsets) == 9                   # the original keeps its ladder


def test_probe_offsets_are_no_field_so_no_flag_config_or_model_key():
    hp = default_hyperparameters("NLW")
    assert "probe_offsets" not in {f.name for f in fields(hp)}
    assert "probe_offsets" not in hp.to_dict()
    # equality and hashing still see the fields alone
    assert hp == hp.replace() and hash(hp) == hash(hp.replace())


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
    {"v_min": 0.75},
])
def test_validation_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Hyperparameters(**bad)


def test_probe_ladder_length_is_capped_where_derivative_offsets_ends():
    # powers of two are exact: a_h = 2^(n-1) gives a ladder of exactly n offsets
    longest = Hyperparameters(a_l=1.0, a_h=2.0 ** (MAX_PROBE_OFFSETS - 1), a_m=2.0)
    assert len(longest.probe_offsets) == MAX_PROBE_OFFSETS
    with pytest.raises(ValueError, match=re.escape(
            f"a_l=1.0, a_h={2.0 ** MAX_PROBE_OFFSETS!r} and a_m=2.0 give a probe ladder of "
            f"about {MAX_PROBE_OFFSETS + 1} offsets, more than the {MAX_PROBE_OFFSETS} allowed")):
        longest.replace(a_h=2.0 ** MAX_PROBE_OFFSETS)
    with pytest.raises(ValueError,
                       match=r"a_m=1.000000001 give a probe ladder of about 8472\d{5} offsets"):
        Hyperparameters(a_m=1.0 + 1e-9)
    assert len(default_hyperparameters().probe_offsets) == 9
