"""Backprop, update rules, the iteration loop, and the Trainer."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutnet import core, kernel, regularize, train
from lutnet.core import (
    LutConnection,
    Network,
    find_nonfinite,
    forward_batch,
    forward_network,
    init_network,
    interpolate,
    lut_grid,
    segment_coords,
)
from lutnet.hyper import Hyperparameters, default_hyperparameters
from lutnet.modelio import load_model, save_model
from lutnet.regularize import diffuse_lut, diffuse_visits, update_visits
from lutnet.train import (
    Trainer,
    TrainingDiverged,
    approx_lut_derivative,
    backprop,
    train_iteration,
    update_lut_component,
)
from conftest import NumpyOnly, iterate
from reference import (
    extract_params,
    max_param_difference,
    max_relative_param_difference,
    ref_iteration,
    relative_gap,
)


NLW = default_hyperparameters("NLW")
LW = default_hyperparameters("LW")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Derivative probes

def test_derivative_offsets_frozen_sequence():
    offs = NLW.probe_offsets
    assert len(offs) == 9
    assert offs[0] == 0.15
    assert offs[-1] == 0.3215383215000002
    assert np.all(offs <= NLW.a_h)
    assert offs[-1] * NLW.a_m > NLW.a_h
    # consecutive ratio is the multiplier
    assert np.allclose(offs[1:] / offs[:-1], NLW.a_m, rtol=1e-12)


def test_derivative_offsets_single_when_multiplier_overshoots():
    hp = Hyperparameters(a_l=0.3, a_h=0.35, a_m=1.2)
    assert list(hp.probe_offsets) == [0.3]


def test_lut_derivative_exact_on_ramp():
    # a pure ramp table has slope 1 everywhere, clamped probes included
    grid = lut_grid(NLW)
    conn = LutConnection(linear=0.25, lut=grid.copy(),
                         visits=np.full(NLW.r_res, NLW.v_p))
    for x in np.linspace(-1.3, 1.3, 25):
        d = approx_lut_derivative(conn, float(x), NLW)
        assert abs(d - 1.25) < 1e-12


def test_lut_derivative_constant_table_is_linear_part_only():
    conn = LutConnection(linear=0.4, lut=np.full(NLW.r_res, 0.7),
                         visits=np.full(NLW.r_res, NLW.v_p))
    assert approx_lut_derivative(conn, 0.3, NLW) == pytest.approx(0.4, abs=1e-14)


def test_lut_derivative_far_outside_domain_degenerates_gracefully():
    # all probe pairs clamp to the same grid edge: slope contribution 0
    rng = np.random.default_rng(0)
    conn = LutConnection(linear=0.1, lut=rng.normal(size=NLW.r_res),
                         visits=np.full(NLW.r_res, NLW.v_p))
    assert approx_lut_derivative(conn, 5.0, NLW) == 0.1
    assert approx_lut_derivative(conn, -5.0, NLW) == 0.1


def test_lut_derivative_is_mean_of_probe_quotients():
    rng = np.random.default_rng(1)
    table = rng.normal(size=NLW.r_res)
    conn = LutConnection(linear=0.0, lut=table, visits=np.full(NLW.r_res, NLW.v_p))
    x = 0.2
    total, count = 0.0, 0
    for a in NLW.probe_offsets:
        hi = min(max(x + a, NLW.i_min), NLW.i_max)
        lo = min(max(x - a, NLW.i_min), NLW.i_max)
        if hi == lo:
            continue
        total += (interpolate(table, hi, NLW) - interpolate(table, lo, NLW)) / (hi - lo)
        count += 1
    assert approx_lut_derivative(conn, x, NLW) == pytest.approx(total / count, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient agreement

def _loss(net, x, target):
    y, _ = forward_network(net, x)
    return 0.5 * float(np.sum((y - target) ** 2))


def test_backprop_matches_finite_differences_lw():
    net = init_network((2, 4, 1), "LW", LW, _rng([7, 0]))
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 2)
        target = rng.uniform(-0.9, 0.9, 1)
        _, trace = forward_network(net, x)
        deltas = backprop(net, trace, target)
        acts = [trace.inputs] + [lt.activations for lt in trace.layers]
        for li, lay in enumerate(net.layers):
            for d in range(lay.n_out):
                for s in range(lay.n_in):
                    grad = deltas[li][d] * acts[li][s]
                    keep = lay.w[d, s]
                    lay.w[d, s] = keep + h
                    up = _loss(net, x, target)
                    lay.w[d, s] = keep - h
                    dn = _loss(net, x, target)
                    lay.w[d, s] = keep
                    numeric = (up - dn) / (2 * h)
                    if abs(numeric) > 1e-8:
                        worst = max(worst, abs(grad - numeric) / abs(numeric))
                grad = deltas[li][d]
                keep = lay.bias[d]
                lay.bias[d] = keep + h
                up = _loss(net, x, target)
                lay.bias[d] = keep - h
                dn = _loss(net, x, target)
                lay.bias[d] = keep
                numeric = (up - dn) / (2 * h)
                if abs(numeric) > 1e-8:
                    worst = max(worst, abs(grad - numeric) / abs(numeric))
    assert worst < 1e-4


def test_lut_entry_gradient_is_exact_interpolation_share():
    # perturbing a bracketing entry changes the loss through an affine map,
    # so the share-weighted output delta must match finite differences tightly
    net = init_network((2, 1), "NLW", NLW, _rng([8, 0]))
    rng = np.random.default_rng(8)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, 2)
        target = rng.uniform(-0.9, 0.9, 1)
        _, trace = forward_network(net, x)
        deltas = backprop(net, trace, target)
        lay = net.layers[0]
        for s in range(2):
            lo, frac = segment_coords(float(x[s]), NLW)
            for j, share in ((lo, 1.0 - frac), (lo + 1, frac)):
                grad = deltas[0][0] * share
                keep = lay.lut[0, s, j]
                lay.lut[0, s, j] = keep + h
                up = _loss(net, x, target)
                lay.lut[0, s, j] = keep - h
                dn = _loss(net, x, target)
                lay.lut[0, s, j] = keep
                numeric = (up - dn) / (2 * h)
                if abs(numeric) > 1e-8:
                    worst = max(worst, abs(grad - numeric) / abs(numeric))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# Update rules

def test_update_lut_moves_interpolated_value_by_raw_step():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        table = rng.normal(size=NLW.r_res)
        conn = LutConnection(linear=0.0, lut=table.copy(),
                             visits=np.full(NLW.r_res, NLW.v_p))
        x = float(rng.uniform(-1.0, 1.0))
        e = float(rng.normal())
        before = interpolate(conn.lut, x, NLW)
        from lutnet.regularize import gain_decay
        expected_step = -gain_decay(before, NLW.mu * e, NLW)
        update_lut_component(conn, e, x, NLW, gate=False)
        after = interpolate(conn.lut, x, NLW)
        assert abs((after - before) - expected_step) < 1e-10


def test_update_lut_touches_only_bracketing_entries():
    rng = np.random.default_rng(10)
    table = rng.normal(size=NLW.r_res)
    conn = LutConnection(linear=0.0, lut=table.copy(),
                         visits=np.full(NLW.r_res, NLW.v_p))
    x = 0.37
    lo = int(segment_coords(x, NLW)[0])
    update_lut_component(conn, 0.4, x, NLW, gate=False)
    changed = np.nonzero(conn.lut != table)[0]
    assert set(changed.tolist()) <= {lo, lo + 1}


def test_update_lut_on_grid_point_hits_single_entry():
    hp = Hyperparameters(r_res=2, i_min=0.0, i_max=1.0, mu=0.02)
    conn = LutConnection(linear=0.0, lut=np.array([0.2, 0.8]),
                         visits=np.full(2, hp.v_p))
    update_lut_component(conn, 0.3, 0.0, hp, gate=False)
    assert conn.lut[1] == 0.8
    conn2 = LutConnection(linear=0.0, lut=np.array([0.2, 0.8]),
                          visits=np.full(2, hp.v_p))
    update_lut_component(conn2, 0.3, 1.0, hp, gate=False)
    assert conn2.lut[0] == 0.2


def test_gated_update_scales_only_touched_side():
    hp = Hyperparameters(r_res=2, i_min=0.0, i_max=1.0, mu=0.02, s_b=1e-3)
    conn = LutConnection(linear=0.0, lut=np.array([0.2, 0.8]),
                         visits=np.full(2, hp.v_p))
    update_lut_component(conn, 0.0, 0.0, hp, gate=True)   # e=0: pure gate effect
    assert conn.lut[0] == 0.2 * (1.0 - 1e-3)
    assert conn.lut[1] == 0.8                              # frac 0: untouched


def _connection(table):
    return LutConnection(linear=0.0, lut=table, visits=np.full(len(table), NLW.v_p))


def _read_only_table(table):
    table.flags.writeable = False
    return table


@pytest.mark.parametrize("table,got", [
    pytest.param(np.arange(16, dtype=np.int64), "int64", id="int64"),
    pytest.param(list(np.linspace(-1.0, 1.0, 16)), "list", id="list"),
    pytest.param(np.linspace(-1.0, 1.0, 16, dtype=np.float32), "float32", id="float32"),
    pytest.param(_read_only_table(np.linspace(-1.0, 1.0, 16)), "float64, read-only",
                 id="read-only"),
])
def test_update_lut_component_refuses_a_table_it_cannot_write_in_place(table, got):
    hp = NLW.replace(r_res=16)
    before = np.array(table)
    message = (f"the LUT is updated in place: it must be a writable float64 array "
               f"of 16 entries, got {got}")
    with pytest.raises(ValueError, match=re.escape(message)):
        update_lut_component(_connection(table), 0.4, 0.3, hp, gate=True)
    assert np.array_equal(np.array(table), before)                  # left as it was


@pytest.mark.parametrize("what,read", [
    pytest.param("LUT", lambda table: interpolate(table, 0.3, NLW), id="interpolate"),
    pytest.param("LUT", lambda table: update_lut_component(_connection(table), 0.4, 0.3, NLW,
                                                           gate=True),
                 id="update_lut_component"),
    pytest.param("LUT", lambda table: approx_lut_derivative(_connection(table), 0.3, NLW),
                 id="approx_lut_derivative"),
    pytest.param("LUT", lambda table: diffuse_lut(table, np.full(NLW.r_res, NLW.v_p), NLW),
                 id="diffuse_lut-lut"),
    pytest.param("visit", lambda table: diffuse_lut(np.zeros(NLW.r_res), table, NLW),
                 id="diffuse_lut-visits"),
    pytest.param("visit", lambda table: diffuse_visits(table, NLW), id="diffuse_visits"),
    pytest.param("visit", lambda table: update_visits(table, 0.3, NLW), id="update_visits"),
])
@pytest.mark.parametrize("entries", [100, 10], ids=["too-long", "too-short"])
def test_one_table_forms_reject_a_table_of_the_wrong_length(what, read, entries):
    table = np.arange(float(entries))
    message = f"expected {NLW.r_res} {what} entries, got shape ({entries},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        read(table)
    assert np.array_equal(table, np.arange(float(entries)))        # left as it was


# ---------------------------------------------------------------------------
# Scalar reference parity

PARITY_CONFIGS = [
    ("NLW", NLW.replace(r_res=8, zeta=0.9, r_a=1e-2, r_b=0.5, r_c=0.05,
                        s_b=1e-3, mu=0.3, v_p=0.3)),
    ("NLW", NLW.replace(r_res=16)),
    ("NLW", NLW.replace(r_res=8, zeta=0.0, s_b=1e-3)),
    ("NLW", NLW.replace(r_res=8, zeta=1.0, s_b=1e-3)),
    ("LW", LW),
    ("LW", LW.replace(s_a=1.0, s_b=1e-4, mu=0.1)),
]


PARITY_IDS = ["nlw-aggressive", "nlw-default", "nlw-gate-never", "nlw-gate-always",
              "lw-default", "lw-gain"]

# Three layers let gates fire in several layers in one iteration and check
# each layer's offsets into the network's flat buffers. They run 40
# iterations: there the aggressive profile grows the last-ulp gap between
# the reference's summation order and numpy's about 1.5x per iteration,
# and it passes 1e-9 after 57.
# The NLW cases run once on the probe read the process selects (the compiled
# kernel where it loads) and once more, with "-numpy" ids, on the numpy one.
# 2-1-1's later layer is a 1x1 read, which the kernel leaves to numpy;
# 2-1-3-1's middle layer has a single input, which the kernel takes.
ONE_NODE_SIZES = (((2, 1, 1), 60, "-2-1-1"), ((2, 1, 3, 1), 40, "-2-1-3-1"))
PARITY_CASES = (
    [pytest.param(kind, hp, (2, 3, 2), 60, False, id=name)
     for (kind, hp), name in zip(PARITY_CONFIGS, PARITY_IDS)]
    + [pytest.param(kind, hp, (2, 4, 3, 2), 40, False, id=f"{name}-3layer")
       for (kind, hp), name in zip(PARITY_CONFIGS, PARITY_IDS)]
    + [pytest.param(kind, hp, sizes, iterations, numpy_path,
                    id=f"{name}{suffix}{'-numpy' * numpy_path}")
       for (kind, hp), name in zip(PARITY_CONFIGS, PARITY_IDS) if kind == "NLW"
       for sizes, iterations, suffix, numpy_path in (
           [((2, 3, 2), 60, "", True), ((2, 4, 3, 2), 40, "-3layer", True)]
           + [(*case, numpy_path) for case in ONE_NODE_SIZES for numpy_path in (False, True)])]
)


@pytest.mark.parametrize("kind,hp,sizes,iterations,numpy_path", PARITY_CASES)
def test_iteration_matches_scalar_reference(numpy_only, kind, hp, sizes, iterations,
                                            numpy_path):
    numpy_only.force(numpy_path)
    net = init_network(sizes, kind, hp, _rng([21, 0]))
    params = extract_params(net)
    rng = np.random.default_rng(22)
    n_gate = net.lut_connection_count()
    for _ in range(iterations):
        x = rng.uniform(-1.2, 1.2, 2)
        target = rng.uniform(-0.9, 0.9, sizes[-1])
        gate_u = rng.random(n_gate)
        err = iterate(net, x, target, gate_u)
        ref_err = ref_iteration(params, x, target, gate_u, hp, kind)
        assert abs(err - ref_err) < 1e-9
        assert max_param_difference(params, net) < 1e-9
    numpy_only.check(net)


# Last-ulp summation differences compound over a long run, so it is held
# to a bound relative to the values (mild profiles only; see above).
@pytest.mark.parametrize("kind,hp", [PARITY_CONFIGS[1], PARITY_CONFIGS[4]],
                         ids=["nlw-default", "lw-default"])
def test_long_run_matches_scalar_reference_relatively(kind, hp):
    net = init_network((2, 4, 3, 2), kind, hp, _rng([21, 0]))
    params = extract_params(net)
    rng = np.random.default_rng(23)
    n_gate = net.lut_connection_count()
    for it in range(1, 2001):
        x = rng.uniform(-1.2, 1.2, 2)
        target = rng.uniform(-0.9, 0.9, 2)
        gate_u = rng.random(n_gate)
        err = iterate(net, x, target, gate_u)
        assert relative_gap(ref_iteration(params, x, target, gate_u, hp, kind), err) <= 1e-9
        if it % 250 == 0:
            assert max_relative_param_difference(params, net) <= 1e-9


def test_parity_holds_across_visit_scale_folds():
    # r_c 0.5 halves the visit scale every iteration: the tables fold at iterations
    # 65 and 130, and the reference, which decays every entry, must not notice
    hp = NLW.replace(r_res=8, r_c=0.5, zeta=0.3)
    net = init_network((2, 4, 3, 2), "NLW", hp, _rng([24, 0]))
    params = extract_params(net)
    rng = np.random.default_rng(25)
    folds = []
    for it in range(1, 151):
        x = rng.uniform(-1.2, 1.2, 2)
        target = rng.uniform(-0.9, 0.9, 2)
        gate_u = rng.random(net.lut_connection_count())
        err = iterate(net, x, target, gate_u)
        assert relative_gap(ref_iteration(params, x, target, gate_u, hp, "NLW"), err) <= 1e-9
        assert max_relative_param_difference(params, net) <= 1e-9
        if net.visit_scale == 1.0:
            folds.append(it)
    assert folds == [65, 130]


def test_reference_comparisons_report_a_nan_parameter():
    net = init_network((2, 3, 2), "NLW", NLW.replace(r_res=8), _rng([21, 0]))
    params = extract_params(net)
    net.layers[1].lut[1, 2, 3] = np.nan
    assert math.isnan(max_param_difference(params, net))
    assert math.isnan(max_relative_param_difference(params, net))


@pytest.mark.parametrize("source", ["init", "load", "clone"])
def test_layer_arrays_are_views_the_next_iteration_reads(tmp_path, source):
    hp = NLW.replace(r_res=8, zeta=1.0, s_b=1e-3)
    net = init_network((2, 4, 3, 2), "NLW", hp, _rng([26, 0]))
    if source == "load":
        save_model(tmp_path / "m.json", net)
        net = load_model(tmp_path / "m.json").net
    elif source == "clone":
        net = net.clone()
    for lay in net.layers:
        assert np.shares_memory(lay.w, net.params) and np.shares_memory(lay.bias, net.params)
        assert np.shares_memory(lay.lut, net.luts) and np.shares_memory(lay.visits, net.visits)
    for li, lay in enumerate(net.layers):
        lay.w[0, 1] = 0.4 + li
        lay.bias[1] = -0.3
        lay.lut[1, 0, 2:5] = [0.5, -0.25, 0.75]
        lay.visits[0, 1, 3] = 0.9
    params = extract_params(net)
    rng = np.random.default_rng(27)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, 2)
        target = rng.uniform(-0.9, 0.9, 2)
        gate_u = rng.random(net.lut_connection_count())
        err = iterate(net, x, target, gate_u)
        assert abs(err - ref_iteration(params, x, target, gate_u, hp, "NLW")) < 1e-12
        assert max_param_difference(params, net) < 1e-12


@pytest.mark.parametrize("numpy_path", [False, True], ids=["selected-read", "numpy-read"])
@settings(max_examples=60, deadline=None)
@example(seed=3, r_res=16, x=[0.3, -0.7], target=0.5, zeta=0.0)
@example(seed=4, r_res=256, x=[-0.2, 0.9], target=-0.4, zeta=0.0)
@example(seed=5, r_res=256, x=[0.6, -1.2], target=0.1, zeta=0.5)
@given(seed=st.integers(0, 2**32 - 1), r_res=st.integers(2, 40),
       x=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
       target=st.floats(-0.9, 0.9), zeta=st.sampled_from([0.0, 0.3, 1.0]))
def test_ungated_iteration_changes_at_most_two_adjacent_lut_entries(numpy_path, seed, r_res, x,
                                                                     target, zeta):
    # the stored visit tables too: their decay is the visit scale's. A row whose gate
    # fires (draw below zeta) is diffused whole, and the ungated rows beside it still
    # change two adjacent entries at most. The table writes have a kernel and a numpy
    # body, so both are checked
    hp = NLW.replace(r_res=r_res, zeta=zeta)
    net = init_network((2, 3, 1), "NLW", hp, _rng([seed, 0]))
    before = {"luts": net.luts.copy(), "visits": net.visits.copy()}
    gate_u = _rng([seed, 1]).random(net.lut_connection_count())
    with pytest.MonkeyPatch.context() as patch:     # hypothesis takes no function fixture
        numpy_only = NumpyOnly(patch)
        numpy_only.force(numpy_path)
        iterate(net, np.array(x), np.array([target]), gate_u)
        numpy_only.check(net)
    assert net.visit_scale == 1.0 - hp.r_c
    for name, table in before.items():
        for row_before, row_after, gated in zip(table, getattr(net, name), zeta > gate_u):
            changed = np.flatnonzero(row_before != row_after)
            assert changed.size <= (r_res if gated else 2)
            if changed.size == 2 and not gated:
                assert changed[1] == changed[0] + 1


def test_train_iteration_consumes_one_uniform_per_lut_connection():
    net = init_network((2, 3, 1), "NLW", NLW, _rng([23, 0]))
    twin = net.clone()
    x = np.array([0.3, -0.5])
    target = np.array([0.2])
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    err_a = train_iteration(net, x, target, rng_a)
    gate_u = rng_b.random(net.lut_connection_count())
    err_b = iterate(twin, x, target, gate_u)
    assert err_a == err_b
    assert max_param_difference(extract_params(net), twin) == 0.0
    # both generators advanced identically
    assert rng_a.random() == rng_b.random()


def _raw(arrays):
    """Fresh byte copies of arrays, so that NaN payloads and -0.0 compare too."""
    return [np.array(a).view(np.uint8) for a in arrays]


@pytest.mark.parametrize("kind", ["NLW", "LW"])
@pytest.mark.parametrize("x,target,name", [
    pytest.param([np.nan, 0.1], [0.2], "x", id="x-nan"),
    pytest.param([0.3, -np.inf], [0.2], "x", id="x-inf"),
    pytest.param([0.3, 0.1], [np.inf], "target", id="target-inf"),
    pytest.param([0.3, 0.1], [np.nan], "target", id="target-nan"),
    pytest.param([np.nan, 0.1], [np.inf], "x", id="both"),
])
def test_train_iteration_refuses_a_non_finite_sample(kind, x, target, name):
    # before it draws a gate or writes the net: a NaN there used to train into the
    # weights and come back as a nan error
    hp = default_hyperparameters(kind).replace(r_res=16)
    net = init_network((2, 3, 1), kind, hp, _rng([60, 0]))
    rng = np.random.default_rng(61)
    train_iteration(net, [0.3, 0.1], [0.2], rng)            # binds the workspace
    ws = net._workspace
    buffers = _buffers(net) + [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    before, state, scale = _raw(buffers), rng.bit_generator.state, net.visit_scale
    with pytest.raises(ValueError, match=f"^{name} has a non-finite value$"):
        train_iteration(net, x, target, rng)
    assert rng.bit_generator.state == state
    assert net.visit_scale == scale
    for got, want in zip(_raw(buffers), before):
        assert np.array_equal(got, want)
    assert find_nonfinite(net) is None


# Probe pairs as the default ladder, wide enough to clamp at both edges, and
# on a domain narrower than tanh's range, where pairs of one input clamp to
# the same edge and drop out of the average.
PROBE_PROFILES = [
    pytest.param(NLW.replace(r_res=16, zeta=0.5), id="default"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, a_l=0.9, a_h=2.0), id="wide-probes"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, i_min=-0.3, i_max=0.3), id="narrow-domain"),
]


PROBE_SIZES = ((2, 8, 1), (2, 4, 3, 2), (2, 1, 1), (2, 1, 3, 1))


def _probe_rows(hp):
    """Rows on the domain edges, on grid points and outside the domain."""
    grid = lut_grid(hp)
    return np.array([[hp.i_min, 0.1], [hp.i_max, hp.i_min], [grid[5], grid[11]],
                     [hp.i_min - 0.7, hp.i_max + 1.4]])


@pytest.mark.parametrize("sizes,hp,numpy_path", [
    pytest.param(sizes, profile.values[0], numpy_path,
                 id=f"{profile.id}-{'-'.join(map(str, sizes))}{'-numpy' * numpy_path}")
    for numpy_path in (False, True) for profile in PROBE_PROFILES for sizes in PROBE_SIZES])
def test_fused_probe_reads_match_public_forward_and_backprop(numpy_only, sizes, hp,
                                                             numpy_path):
    # forward_network reads a LUT layer and its probes in one gather. Each connection's
    # read equals the public one-table read, interpolate, bit for bit; its derivative
    # equals approx_lut_derivative, whose numpy sum over the probes may round otherwise;
    # and backprop's deltas follow from those derivatives.
    numpy_only.force(numpy_path)
    rows = _probe_rows(hp)
    target = np.linspace(-0.5, 0.5, sizes[-1])
    net = init_network(sizes, "NLW", hp, _rng([40, len(sizes)]))
    gate_u = _rng([41]).random((len(rows), net.lut_connection_count()))
    for i, x in enumerate(rows):
        _, trace = forward_network(net, x)
        deltas = backprop(net, trace, target)
        for li, (lay, layer) in enumerate(zip(net.layers, trace.layers)):
            derivs = np.empty(lay.w.shape)
            for d, s in np.ndindex(lay.w.shape):
                at = float(layer.inputs[s])
                assert layer.lut_values[d, s] == interpolate(lay.lut[d, s], at, hp)
                derivs[d, s] = approx_lut_derivative(
                    LutConnection(lay.w[d, s], lay.lut[d, s], lay.visits[d, s]), at, hp)
            assert lay.w + layer.slope == pytest.approx(derivs, rel=1e-12, abs=1e-15)
            if li:
                y_prev = trace.layers[li - 1].activations
                back = (deltas[li][:, None] * derivs).sum(axis=0) * (1.0 - y_prev * y_prev)
                assert deltas[li - 1] == pytest.approx(back, rel=1e-12, abs=1e-15)
        iterate(net, x, target, gate_u[i])
    numpy_only.check(net)


@pytest.mark.skipif(kernel.load() is None, reason="the probe kernel cannot be built here")
@pytest.mark.parametrize("sizes,hp", [
    pytest.param(sizes, profile.values[0], id=f"{profile.id}-{'-'.join(map(str, sizes))}")
    for profile in PROBE_PROFILES for sizes in PROBE_SIZES])
def test_kernel_and_numpy_reads_give_the_same_traces(numpy_only, sizes, hp):
    # every layer's trace, slope included, with the net trained between rows
    rows = _probe_rows(hp)
    target = np.linspace(-0.5, 0.5, sizes[-1])
    start = init_network(sizes, "NLW", hp, _rng([40, len(sizes)]))
    gate_u = _rng([41]).random((len(rows), start.lut_connection_count()))
    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net, traces = start.clone(), []
        for i, x in enumerate(rows):
            traces.append(forward_network(net, x)[1])
            iterate(net, x, target, gate_u[i])
        numpy_only.check(net)
        runs.append((net, traces))
    (net, traces), (numpy_net, numpy_traces) = runs
    for trace, numpy_trace in zip(traces, numpy_traces):
        for layer, numpy_layer in zip(trace.layers, numpy_trace.layers):
            assert layer.slope is not None
            for name in ("seg_lo", "seg_frac", "lut_values", "slope", "activations"):
                assert np.array_equal(getattr(layer, name), getattr(numpy_layer, name))
    for name in ("params", "luts", "visits"):
        assert np.array_equal(getattr(net, name), getattr(numpy_net, name))


@pytest.mark.skipif(kernel.load() is None, reason="the probe kernel cannot be built here")
@pytest.mark.parametrize("hp", [
    pytest.param(NLW.replace(r_res=16, zeta=0.5), id="zeta-0.5"),
    pytest.param(NLW.replace(r_res=64, zeta=1.0), id="zeta-1"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, r_a=0.0), id="r_a-0"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, r_c=0.5), id="r_c-0.5"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, s_a=0.0), id="s_a-0"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, s_b=0.0), id="s_b-0"),
])
def test_kernel_and_numpy_diffusion_train_the_same_bits(monkeypatch, numpy_only, hp):
    # the table writes as well; r_c = 0.5 halves visit_scale every iteration, so the
    # scale folds every 65 iterations
    rng = _rng([42])
    args = rng.uniform(-1.3, 1.3, (40, 2))
    vals = np.tanh(args[:, :1] * args[:, 1:])
    start = init_network((2, 8, 4, 1), "NLW", hp, _rng([43]))
    folds, numpy_rows, numpy_writes = [], [], []
    fold, numpy_diffusion = Network.fold_visit_scale, regularize._diffuse_rows_numpy
    numpy_updates = train._updates_numpy
    monkeypatch.setattr(Network, "fold_visit_scale", lambda net: folds.append(1) or fold(net))
    monkeypatch.setattr(regularize, "_diffuse_rows_numpy",
                        lambda *args: numpy_rows.append(1) or numpy_diffusion(*args))
    monkeypatch.setattr(train, "_updates_numpy",
                        lambda *args: numpy_writes.append(1) or numpy_updates(*args))
    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        runs.append((Trainer(net, args, vals, seed=44).run(300, log_every=50), net,
                     len(folds), len(numpy_rows), len(numpy_writes)))
        numpy_only.check(net)
    (rows, net, kernel_folds, kernel_numpy_rows, kernel_numpy_writes), \
        (numpy_log, numpy_net, _, _, _) = runs
    # each path diffused and wrote its own way
    assert kernel_numpy_rows == 0 < len(numpy_rows)
    assert kernel_numpy_writes == 0 and len(numpy_writes) == 300
    assert (kernel_folds > 0) == (hp.r_c == 0.5)
    assert len(folds) == 2 * kernel_folds
    assert rows == numpy_log
    for name in ("params", "luts", "visits"):
        assert np.array_equal(getattr(net, name).view(np.int64),
                              getattr(numpy_net, name).view(np.int64))
    assert net.visit_scale == numpy_net.visit_scale


@pytest.mark.skipif(kernel.load() is None, reason="the probe kernel cannot be built here")
@pytest.mark.parametrize("sizes,kind,hp", [
    pytest.param((2, 8, 1), "NLW", NLW.replace(r_res=64), id="2-8-1"),
    pytest.param((2, 4, 3, 2), "NLW", NLW.replace(r_res=32, s_a=0.0, r_a=0.0), id="s_a-0"),
    pytest.param((2, 3, 1), "NLW", NLW.replace(r_res=32, s_a=5.0, s_b=0.0), id="s_a-5"),
    pytest.param((2, 1), "NLW", NLW.replace(r_res=16, zeta=1.0, nu=0.5), id="zeta-1"),
    pytest.param((1, 1), "NLW", NLW.replace(r_res=16, zeta=0.0, r_c=0.5), id="zeta-0"),
    pytest.param((5, 32, 32, 1), "LW", LW, id="lw-5-32-32-1"),
    pytest.param((2, 3, 1), "LW", LW.replace(s_a=5.0), id="lw-s_a-5"),
    pytest.param((3, 1, 1, 1), "LW", LW.replace(s_a=0.5), id="lw-one-input"),
])
def test_kernel_and_numpy_updates_train_the_same_bits(monkeypatch, numpy_only, sizes, kind,
                                                      hp):
    # the kernel's updates call on one gate block per Trainer.run block, against numpy's;
    # an LW net's call has no LUT rows, slopes or rates
    rng = _rng([53])
    args = rng.uniform(-1.3, 1.3, (30, sizes[0]))
    vals = np.tanh(args[:, :1] - 0.5 * args[:, -1:]).repeat(sizes[-1], axis=1)
    start = init_network(sizes, kind, hp, _rng([54]))
    numpy_backprop, numpy_updates, calls = train._backprop_numpy, train._updates_numpy, []
    monkeypatch.setattr(train, "_backprop_numpy",
                        lambda *args: calls.append(1) or numpy_backprop(*args))
    monkeypatch.setattr(train, "_updates_numpy",
                        lambda *args: calls.append(1) or numpy_updates(*args))
    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        trainer = Trainer(net, args, vals, seed=55)
        rows = trainer.run(200, log_every=40) + trainer.run(57, log_every=0)
        numpy_only.check(net)
        runs.append((rows, net, len(calls)))
    (rows, net, kernel_calls), (numpy_rows, numpy_net, all_calls) = runs
    assert kernel_calls == 0 and all_calls == 2 * 257
    _assert_same_training([(rows, net), (numpy_rows, numpy_net)])


def _buffers(net):
    """net's parameter buffers: params, then for NLW luts and visits."""
    return [net.params] if net.luts is None else [net.params, net.luts, net.visits]


def _assert_same_training(runs):
    """runs holds two (log rows, net) pairs with equal rows and bits."""
    (rows, net), (want_rows, want_net) = runs
    assert rows == want_rows
    for buf, want_buf in zip(_buffers(net), _buffers(want_net)):
        assert np.array_equal(buf.view(np.int64), want_buf.view(np.int64))
    assert net.visit_scale == want_net.visit_scale


def test_bound_calls_that_decline_leave_training_to_numpy(numpy_only):
    # an updates call and a diffusion call that decline (-1), as the kernel's do on an
    # index they refuse: the iteration's numpy updates and _diffuse_rows' numpy
    # diffusion then run, and give the bits of a run on numpy alone
    hp = NLW.replace(r_res=16, zeta=0.3)
    args, vals = _toy_data(n=20, seed=7)
    start = init_network((2, 4, 3, 1), "NLW", hp, _rng([56]))
    declined = {"updates": 0, "diffuse": 0}

    def decline(name):
        def call(*args):
            declined[name] += 1
            return -1
        return call

    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        if not numpy_path:
            for name in declined:
                setattr(net._workspace, name, decline(name))
        runs.append((Trainer(net, args, vals, seed=57).run(300, log_every=50), net))
    numpy_only.check(runs[1][1])
    assert declined["updates"] == 300 and declined["diffuse"] > 0
    _assert_same_training(runs)


def test_a_gate_block_with_fewer_rows_trains_the_same_bits(monkeypatch):
    # a block of Trainer.run ends where the workspace's gate block is full, and the gate
    # generator gives the same uniforms however the blocks split its stream
    hp = NLW.replace(r_res=16, zeta=0.3)
    args, vals = _toy_data(n=20, seed=8)
    start = init_network((2, 4, 3, 1), "NLW", hp, _rng([58]))
    n_conn, runs = start.lut_connection_count(), []
    for entries in (core.GATE_ENTRIES, 3 * n_conn):
        monkeypatch.setattr(core, "GATE_ENTRIES", entries)
        net = start.clone()
        trainer = Trainer(net, args, vals, seed=59)
        runs.append((trainer.run(130, log_every=50) + trainer.run(11, log_every=0), net))
        assert net._workspace.gate_u.shape == (entries // n_conn, n_conn)
    assert runs[1][1]._workspace.gate_u.shape[0] == 3
    _assert_same_training(runs)


@pytest.mark.parametrize("sizes", [(1, 1), (2, 1, 1)], ids=["1-1", "2-1-1"])
def test_a_net_with_a_1x1_lut_layer_trains_the_same_bits_on_both_paths(numpy_only, sizes):
    # the kernel declines to bind a 1x1 read, so the workspace reads that layer in numpy
    hp = NLW.replace(r_res=16, zeta=0.3)
    args, vals = _toy_data(n=20, seed=6)
    start = init_network(sizes, "NLW", hp, _rng([45]))
    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        rows = Trainer(net, args[:, :sizes[0]], vals, seed=46).run(300, log_every=50)
        numpy_only.check(net)
        runs.append((rows, net))
    (rows, net), (numpy_rows, numpy_net) = runs
    assert rows == numpy_rows
    for name in ("params", "luts", "visits"):
        assert np.array_equal(getattr(net, name).view(np.int64),
                              getattr(numpy_net, name).view(np.int64))
    assert net.visit_scale == numpy_net.visit_scale


@pytest.mark.skipif(kernel.load() is None, reason="the probe kernel cannot be built here")
@pytest.mark.parametrize("kind,hp", [("NLW", NLW.replace(r_res=16, zeta=0.3)),
                                     ("LW", LW.replace(s_a=0.5))], ids=["NLW", "LW"])
def test_a_one_input_layer_feeding_many_nodes_trains_on_numpy_deltas(
        monkeypatch, numpy_only, kind, hp):
    # numpy sums the backward column of a one-input layer after the first pairwise, and
    # from 8 rows on that differs from the kernel's sum row after row: such a net
    # (2-1-9) runs numpy's backprop, then the bound call's updates, which skip the C
    # backprop; its reads and diffusion stay in C
    rng = _rng([62])
    args = rng.uniform(-1.3, 1.3, (30, 2))
    vals = np.tanh(args[:, :1] * np.linspace(-1.0, 1.0, 9) - 0.5 * args[:, 1:])
    start = init_network((2, 1, 9), kind, hp, _rng([63]))
    numpy_updates, calls = train._updates_numpy, []
    monkeypatch.setattr(train, "_updates_numpy",
                        lambda *args: calls.append(1) or numpy_updates(*args))
    runs = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        runs.append((Trainer(net, args, vals, seed=64).run(300, log_every=50), net))
        numpy_only.check(net)
        if not numpy_path:
            ws = net._workspace
            assert ws.numpy_backprop and ws.updates is not None and calls == []
            assert (ws.diffuse is not None) == (kind == "NLW")
    assert len(calls) == 300
    _assert_same_training(runs)


FIXED = [("net", name) for name in ("sizes", "kind", "hp", "params", "luts", "visits",
                                    "layers")]
FIXED += [("layer", name) for name in ("w", "bias", "lut", "visits")]
# another object of the kind each attribute holds (an array's is its copy)
OTHER = {"sizes": lambda s: tuple(list(s)), "kind": lambda _: "LW", "hp": lambda hp: hp.replace(),
         "layers": lambda layers: tuple(list(layers))}


@pytest.mark.parametrize("owner,name", FIXED, ids=[f"{o}-{n}" for o, n in FIXED])
@pytest.mark.parametrize("when", ["between-runs", "in-on_log"])
def test_a_fixed_attribute_refuses_rebinding(owner, name, when):
    # a network's arrays, hyperparameters and layers are fixed when it is built, so the
    # layers' views, the workspace and the batch pass read the same buffers for good
    hp = NLW.replace(r_res=16, zeta=0.3)
    args, vals = _toy_data(n=20, seed=7)
    straight = init_network((2, 4, 1), "NLW", hp, _rng([47]))
    net = straight.clone()
    Trainer(straight, args, vals, seed=48).run(60, log_every=10)
    refused = []

    def rebind(trainer, _=None):
        if trainer.iteration == 30:
            target = net if owner == "net" else net.layers[-1]
            held = getattr(target, name)
            other = OTHER.get(name, np.copy)(held)
            assert other is not held
            with pytest.raises(AttributeError, match=rf"\b{name} is fixed") as caught:
                setattr(target, name, other)
            assert getattr(target, name) is held
            refused.append(str(caught.value))

    trainer = Trainer(net, args, vals, seed=48)
    if when == "between-runs":
        trainer.run(30, log_every=10)
        rebind(trainer)
        trainer.run(30, log_every=10)
    else:
        trainer.run(60, log_every=10, on_log=rebind)
    assert refused == [f"{'Network' if owner == 'net' else 'Layer'}.{name} is fixed when "
                       f"the network is built: write into its arrays in place"]
    for buf in ("params", "luts", "visits"):
        assert np.array_equal(getattr(net, buf).view(np.int64),
                              getattr(straight, buf).view(np.int64))
    assert net.visit_scale == straight.visit_scale
    batch = forward_batch(net, args)        # the layers' views read the trained buffers
    assert np.array_equal(batch, forward_batch(straight, args))
    assert np.array_equal(batch, np.array([forward_network(net, x)[0] for x in args]))


def test_fixed_arrays_still_take_writes_in_place():
    # an augmented assignment writes in place and then assigns the same object back
    net = init_network((2, 4, 1), "NLW", NLW.replace(r_res=16), _rng([49]))
    params, lay = net.params, net.layers[0]
    before = params.copy()
    net.params *= 1.0
    lay.w *= 2.0
    lay.lut += 0.5
    assert net.params is params
    assert np.array_equal(net.params, np.concatenate([2.0 * before[:8], before[8:]]))
    assert np.shares_memory(lay.w, net.params) and np.shares_memory(lay.lut, net.luts)
    assert isinstance(net.layers, tuple)
    with pytest.raises(TypeError):
        net.layers[0] = lay
    with pytest.raises(AttributeError, match=r"Network\.luts is fixed"):
        del net.luts
    net.visit_scale = 0.5                   # training writes the visit scale every iteration
    assert net.visit_scale == 0.5


def test_iteration_error_is_mean_squared_output_error():
    net = init_network((2, 1, 3), "LW", LW, _rng([24, 0]))
    x = np.array([0.1, 0.2])
    target = np.array([0.5, -0.5, 0.25])
    y, _ = forward_network(net, x)
    err = train_iteration(net.clone(), x, target, np.random.default_rng(0))
    assert err == pytest.approx(float(np.mean((y - target) ** 2)), abs=1e-15)


# ---------------------------------------------------------------------------
# Trainer loop

def _toy_data(n=12, seed=0):
    rng = np.random.default_rng(seed)
    args = rng.uniform(-0.5, 0.5, (n, 2))
    vals = rng.uniform(-0.5, 0.5, (n, 1))
    return args, vals


def test_trainer_validates_shapes():
    net = init_network((2, 2, 1), "LW", LW, _rng([25, 0]))
    args, vals = _toy_data()
    with pytest.raises(ValueError):
        Trainer(net, args[:, :1], vals, seed=0)
    with pytest.raises(ValueError):
        Trainer(net, args, np.hstack([vals, vals]), seed=0)
    with pytest.raises(ValueError):
        Trainer(net, args[:0], vals[:0], seed=0)


@pytest.mark.parametrize("args_shape,vals_shape", [
    ((5,), (5, 1)), ((5, 1), (5,)), ((5, 1, 1), (5, 1)), ((5, 1), (3, 1)),
], ids=["args-1d", "vals-1d", "args-3d", "row-counts-differ"])
def test_trainer_rejects_misshapen_data_naming_the_shapes(args_shape, vals_shape):
    net = init_network((1, 2, 1), "NLW", NLW, _rng([25, 4]))
    args, vals = np.zeros(args_shape), np.zeros(vals_shape)
    with pytest.raises(ValueError, match=re.escape(f"shapes {args_shape} and {vals_shape}")):
        Trainer(net, args, vals, seed=0)


@pytest.mark.parametrize("bad", [(5, "args", np.nan), (7, "vals", np.inf), (3, "args", -np.inf)])
def test_trainer_rejects_nonfinite_data_naming_the_row(bad):
    row, which, value = bad
    net = init_network((2, 2, 1), "NLW", NLW, _rng([25, 1]))
    args, vals = _toy_data()
    {"args": args, "vals": vals}[which][row, -1] = value
    vals[9, 0] = np.nan                                  # a later bad row is not the one named
    with pytest.raises(ValueError, match=f"row {row} "):
        Trainer(net, args, vals, seed=0)


def test_trainer_zero_iterations_is_identity():
    net = init_network((2, 2, 1), "NLW", NLW, _rng([26, 0]))
    params = extract_params(net)
    args, vals = _toy_data()
    tr = Trainer(net, args, vals, seed=0)
    assert tr.run(0) == []
    assert tr.iteration == 0
    assert max_param_difference(params, net) == 0.0


def test_trainer_is_deterministic():
    args, vals = _toy_data()
    nets = []
    for _ in range(2):
        net = init_network((2, 3, 1), "NLW", NLW, _rng([27, 0]))
        Trainer(net, args, vals, seed=3).run(500, log_every=100)
        nets.append(net)
    assert max_param_difference(extract_params(nets[0]), nets[1]) == 0.0


def test_trainer_seed_changes_the_run():
    args, vals = _toy_data()
    net_a = init_network((2, 3, 1), "NLW", NLW, _rng([28, 0]))
    net_b = net_a.clone()
    Trainer(net_a, args, vals, seed=0).run(200, log_every=0)
    Trainer(net_b, args, vals, seed=1).run(200, log_every=0)
    assert max_param_difference(extract_params(net_a), net_b) > 0.0


def test_trainer_restore_resumes_bit_exact():
    args, vals = _toy_data()
    net = init_network((2, 3, 1), "NLW", NLW, _rng([29, 0]))
    tr = Trainer(net, args, vals, seed=4)
    tr.run(137, log_every=50)
    snap_net = net.clone()
    snap_state = tr.gate_state()
    snap_iter = tr.iteration
    tr.run(263, log_every=50)

    tr2 = Trainer(snap_net, args, vals, seed=4)
    tr2.restore(snap_iter, snap_state)
    tr2.run(263, log_every=50)
    assert tr2.iteration == tr.iteration == 400
    assert max_param_difference(extract_params(net), snap_net) == 0.0


@settings(max_examples=30, deadline=None)
# r_c 0.5 halves the visit scale every iteration, so the table folds at iteration 65
@example(kind="NLW", seed=5, n=90, split=0.5, r_c=0.5)
@example(kind="NLW", seed=5, n=90, split=0.75, r_c=0.5)
@given(kind=st.sampled_from(["NLW", "LW"]), seed=st.integers(0, 2**16),
       n=st.integers(1, 90), split=st.floats(0.0, 1.0), r_c=st.just(NLW.r_c))
def test_resume_at_any_split_is_bit_exact(tmp_path_factory, kind, seed, n, split, r_c):
    # run(n) == run(k), save, load, restore, run(n - k): parameters and saved bytes
    k = int(split * n)
    hp = {"NLW": NLW.replace(r_res=8, zeta=0.3, r_c=r_c), "LW": LW}[kind]
    args, vals = _toy_data(n=17, seed=seed)
    whole = init_network((2, 3, 1), kind, hp, _rng([seed, 0]))
    tr = Trainer(whole, args, vals, seed=seed)
    tr.run(n, log_every=7)

    half = Trainer(init_network((2, 3, 1), kind, hp, _rng([seed, 0])), args, vals, seed=seed)
    half.run(k, log_every=7)
    tmp = tmp_path_factory.mktemp("resume")
    save_model(tmp / "k.json", half.net, half.iteration, half.gate_state())
    loaded = load_model(tmp / "k.json")
    resumed = Trainer(loaded.net, args, vals, seed=seed)
    resumed.restore(loaded.iteration, loaded.rng_state)
    resumed.run(n - k, log_every=7)

    assert resumed.iteration == tr.iteration == n
    assert max_param_difference(extract_params(whole), loaded.net) == 0.0
    save_model(tmp / "whole.json", whole, tr.iteration, tr.gate_state())
    save_model(tmp / "resumed.json", loaded.net, resumed.iteration, resumed.gate_state())
    assert (tmp / "whole.json").read_bytes() == (tmp / "resumed.json").read_bytes()


@pytest.mark.parametrize("numpy_path", [False, True], ids=["selected-read", "numpy-read"])
def test_a_loaded_model_resumed_saves_the_bytes_of_the_straight_run(tmp_path, numpy_only,
                                                                   numpy_path):
    # the loaded net binds a workspace of its own; the straight one keeps its own
    numpy_only.force(numpy_path)
    args, vals = _toy_data(n=30, seed=10)
    hp = NLW.replace(r_res=64, zeta=0.3)
    straight = Trainer(init_network((2, 8, 1), "NLW", hp, _rng([53])), args, vals, seed=54)
    straight.run(70, log_every=20)
    half = Trainer(init_network((2, 8, 1), "NLW", hp, _rng([53])), args, vals, seed=54)
    half.run(33, log_every=20)
    save_model(tmp_path / "half.json", half.net, half.iteration, half.gate_state())
    loaded = load_model(tmp_path / "half.json")
    resumed = Trainer(loaded.net, args, vals, seed=54)
    resumed.restore(loaded.iteration, loaded.rng_state)
    resumed.run(37, log_every=20)
    numpy_only.check(straight.net, half.net, resumed.net)
    for name, trainer in (("straight", straight), ("resumed", resumed)):
        save_model(tmp_path / f"{name}.json", trainer.net, trainer.iteration,
                   trainer.gate_state())
    assert (tmp_path / "straight.json").read_bytes() == (tmp_path / "resumed.json").read_bytes()


def test_trainer_log_rows_cadence_and_partial_tail():
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([30, 0]))
    rows = Trainer(net, args, vals, seed=0).run(250, log_every=100)
    assert [it for it, _ in rows] == [100, 200, 250]
    assert all(math.isfinite(m) and m >= 0 for _, m in rows)


def test_trainer_log_every_zero_gives_single_tail_row():
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([31, 0]))
    rows = Trainer(net, args, vals, seed=0).run(57, log_every=0)
    assert [it for it, _ in rows] == [57]


@pytest.mark.parametrize("iterations,log_every,calls", [
    (250, 100, [100, 200, 250]), (57, 0, [57]), (200, 100, [100, 200]), (0, 100, []),
], ids=["tail", "log-every-zero", "on-cadence", "no-iterations"])
def test_trainer_gives_every_log_row_to_on_log(iterations, log_every, calls):
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([31, 1]))
    seen = []
    rows = Trainer(net, args, vals, seed=0).run(
        iterations, log_every=log_every, on_log=lambda t, m: seen.append((t.iteration, m)))
    assert seen == rows
    assert [it for it, _ in rows] == calls


def test_trainer_on_log_and_stop_when():
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([32, 0]))
    seen = []
    tr = Trainer(net, args, vals, seed=0)
    tr.run(1000, log_every=100,
           on_log=lambda t, m: seen.append(t.iteration),
           stop_when=lambda t: t.iteration >= 300)
    assert tr.iteration == 300
    assert seen == [100, 200, 300]


def test_trainer_checkpoint_cadence_skips_final_iteration():
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([33, 0]))
    marks = []
    Trainer(net, args, vals, seed=0).run(
        500, log_every=0, checkpoint_every=200,
        on_checkpoint=lambda t: marks.append(t.iteration))
    assert marks == [200, 400]


@pytest.mark.parametrize("cadence", [{"log_every": -5}, {"checkpoint_every": -1},
                                     {"iterations": -5}])
def test_trainer_rejects_negative_cadence(cadence):
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([33, 1]))
    tr = Trainer(net, args, vals, seed=0)
    with pytest.raises(ValueError, match=f"{next(iter(cadence))} must be non-negative"):
        tr.run(**{"iterations": 10, **cadence})
    assert tr.iteration == 0


def _new_trainer(tr, seed):
    return Trainer(tr.net, tr.args, tr.vals, seed=seed)


@pytest.mark.parametrize("call,name", [
    pytest.param(lambda tr: tr.restore(-5, tr.gate_state()), "iteration", id="restore-negative"),
    pytest.param(lambda tr: tr.restore(np.int64(-1), tr.gate_state()), "iteration",
                 id="restore-negative-numpy"),
    pytest.param(lambda tr: tr.restore(3.0, tr.gate_state()), "iteration", id="restore-float"),
    pytest.param(lambda tr: tr.restore(True, tr.gate_state()), "iteration", id="restore-bool"),
    pytest.param(lambda tr: _new_trainer(tr, -1), "seed", id="seed-negative"),
    pytest.param(lambda tr: _new_trainer(tr, 1.9), "seed", id="seed-float"),
    pytest.param(lambda tr: _new_trainer(tr, True), "seed", id="seed-bool"),
    pytest.param(lambda tr: _new_trainer(tr, "1"), "seed", id="seed-str"),
    pytest.param(lambda tr: tr.run(2.5), "iterations", id="iterations-float"),
    pytest.param(lambda tr: tr.run(True), "iterations", id="iterations-bool"),
    pytest.param(lambda tr: tr.run(5, log_every=2.5), "log_every", id="log-every-float"),
    pytest.param(lambda tr: tr.run(5, log_every=None), "log_every", id="log-every-none"),
    pytest.param(lambda tr: tr.run(5, checkpoint_every=2.0), "checkpoint_every",
                 id="checkpoint-every-float"),
])
def test_trainer_refuses_inputs_that_are_not_non_negative_ints(call, name):
    # before, restore(-5) was taken and the next run failed on a missing epoch order,
    # and a float or bool was truncated, or failed with an error naming no argument
    args, vals = _toy_data()
    net = init_network((2, 3, 1), "NLW", NLW.replace(r_res=8), _rng([33, 2]))
    tr = Trainer(net, args, vals, seed=0)
    state, params = tr.gate_state(), net.params.copy()
    with pytest.raises(ValueError, match=f"^{name} must be non-negative and an int"):
        call(tr)
    assert tr.iteration == 0 and tr.gate_state() == state
    assert np.array_equal(net.params, params)
    tr.run(3)                                   # the trainer is still whole
    assert tr.iteration == 3


def test_trainer_takes_numpy_integers_as_ints():
    args, vals = _toy_data()
    start = init_network((2, 3, 1), "NLW", NLW.replace(r_res=8), _rng([33, 3]))
    runs = []
    for to_int in (int, np.int64):
        net = start.clone()
        tr = Trainer(net, args, vals, seed=to_int(4))
        tr.run(to_int(7), log_every=to_int(3), checkpoint_every=to_int(5))
        tr.restore(to_int(20), tr.gate_state())
        runs.append((tr.run(to_int(9), log_every=to_int(4)), net.params.copy(), tr.iteration))
        assert type(tr.iteration) is int
    (rows, params, at), (rows_np, params_np, at_np) = runs
    assert rows == rows_np and at == at_np == 29
    assert np.array_equal(params, params_np)


def test_trainer_epoch_reshuffle_changes_order():
    # with stable per-epoch orders the same net trained twice over two
    # epochs must equal one continuous run of the same length
    args, vals = _toy_data(n=8)
    net_a = init_network((2, 2, 1), "NLW", NLW, _rng([34, 0]))
    net_b = net_a.clone()
    tr_a = Trainer(net_a, args, vals, seed=6)
    tr_a.run(16, log_every=0)
    tr_b = Trainer(net_b, args, vals, seed=6)
    tr_b.run(8, log_every=0)
    tr_b.run(8, log_every=0)
    assert max_param_difference(extract_params(net_a), net_b) == 0.0


def test_trainer_raises_on_nonfinite_with_location():
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "NLW", NLW, _rng([35, 0]))
    tr = Trainer(net, args, vals, seed=0)
    tr.run(100, log_every=0)
    net.layers[0].w[1, 0] = np.inf
    with pytest.raises(TrainingDiverged) as exc, np.errstate(invalid="ignore"):
        tr.run(100, log_every=50)
    assert "layer 0" in str(exc.value)
    assert "iteration" in str(exc.value)


@pytest.mark.parametrize("logs_before", [3, 0])
def test_trainer_divergence_names_the_training_row_and_the_last_window(logs_before):
    args, vals = _toy_data(n=12)
    net = init_network((2, 2, 1), "NLW", NLW, _rng([35, 0]))
    tr = Trainer(net, args, vals, seed=0)
    tr.run(30, log_every=0)
    windows = []

    def on_log(trainer, window_mse):
        windows.append(window_mse)
        if len(windows) == logs_before:
            net.layers[0].w[1, 0] = np.nan

    if not logs_before:
        net.layers[0].w[1, 0] = np.nan
    with pytest.raises(TrainingDiverged) as exc, np.errstate(invalid="ignore"):
        tr.run(100, log_every=10, on_log=on_log)
    # the first iteration after the NaN presents row 30 + 10 * logs_before of the run
    epoch, pos = divmod(30 + 10 * logs_before, 12)
    last = f"last window mse {windows[-1]!r}" if windows else "no window logged yet"
    assert str(exc.value).startswith("layer 0: non-finite w at ")
    assert str(exc.value).endswith(f" at iteration {31 + 10 * logs_before}, "
                                   f"training row {tr._epoch_order(epoch)[pos]}, {last}")


# Finite values that a training write overflows, written by on_log at iteration 30,
# after that log point's clean scan, so that only a write of training can make the
# next log point scan: (buffer, row, entries, value) and the report, the location,
# iteration and training row a scan at every log point gives. Input 1 stays in
# [-1, 0.2], so the top entries of a layer-0 table of source 1 (rows 1 and 5 of the
# 2-4-3-1 net) are never read: the diffusion's (a + b) * 0.5 of a pair at 1.7e308
# overflows there and stays in the table. Row 2 is read, and its first diffused inf
# goes no further than the table before the log point; a visit row at 1e308
# overflows in the visit update of the first iteration that touches it.
OVERFLOWS = {
    "lut-top-pair": ("luts", 1, slice(14, 16), 1.7e308,
                     "layer 0: non-finite lut at dst 0, src 1, entry 14", 70, 11),
    "lut-top-pair-negative": ("luts", 5, slice(14, 16), -1.7e308,
                              "layer 0: non-finite lut at dst 2, src 1, entry 14", 40, 9),
    "lut-row-read": ("luts", 2, slice(None), 1.7e308,
                     "layer 0: non-finite lut at dst 1, src 0, entry 0", 40, 9),
    "visit-row-layer-0": ("visits", 6, slice(None), 1e308,
                          "layer 0: non-finite visits at dst 3, src 0, entry 0", 40, 9),
    "visit-row-layer-1": ("visits", 11, slice(None), 1e308,
                          "layer 1: non-finite visits at dst 0, src 3, entry 1", 40, 9),
}


def _low_source_1_data():
    """24 rows of 2 inputs, input 0 in [-1, 1] and input 1 in [-1, 0.2]."""
    rng = np.random.default_rng(0)
    args = rng.uniform(-1.0, 1.0, (24, 2))
    args[:, 1] = rng.uniform(-1.0, 0.2, 24)
    return args


@pytest.mark.parametrize("numpy_path", [False, True], ids=["kernel", "numpy"])
@pytest.mark.parametrize("name", list(OVERFLOWS))
def test_an_overflow_in_training_is_reported_at_the_next_log_point(numpy_only, name,
                                                                  numpy_path):
    # the kernel's writes set the workspace's check_due, numpy's always do, so both
    # paths give the report that a scan at every log point gives
    buffer, row, entries, value, where, iteration, sample = OVERFLOWS[name]
    numpy_only.force(numpy_path)
    net = init_network((2, 4, 3, 1), "NLW", NLW.replace(r_res=16), _rng([61, 0]))
    args = _low_source_1_data()
    vals = np.tanh(args[:, :1] - 0.5 * args[:, 1:])
    windows = []

    def on_log(trainer, window_mse):
        windows.append(window_mse)
        if trainer.iteration == 30:
            getattr(net, buffer)[row, entries] = value

    with pytest.raises(TrainingDiverged) as exc, np.errstate(all="ignore"):
        Trainer(net, args, vals, seed=2).run(400, log_every=10, on_log=on_log)
    numpy_only.check(net)
    assert find_nonfinite(net) == where
    assert str(exc.value) == (f"{where} at iteration {iteration}, training row {sample}, "
                              f"last window mse {windows[-1]!r}")


@pytest.mark.parametrize("numpy_path", [False, True], ids=["kernel", "numpy"])
def test_a_run_scans_the_state_it_starts_from(numpy_only, numpy_path):
    # each run sets check_due, so a NaN written between runs where no training write
    # reaches it (a top visit entry of a source 1 table, zeta 0: no diffusion) is found
    # at the next run's first log point
    numpy_only.force(numpy_path)
    net = init_network((2, 4, 3, 1), "NLW", NLW.replace(r_res=16, zeta=0.0), _rng([61, 0]))
    args = _low_source_1_data()
    tr = Trainer(net, args, np.tanh(args[:, :1]), seed=2)
    tr.run(20, log_every=10)
    net.visits[1, 15] = np.nan
    with pytest.raises(TrainingDiverged, match=r"^layer 0: non-finite visits at dst 0, src 1, "
                                               r"entry 15 at iteration 30, "):
        tr.run(20, log_every=10)
    numpy_only.check(net)


@pytest.mark.parametrize("path,kind,scans", [
    pytest.param("kernel", "NLW", 1, id="kernel"),
    pytest.param("numpy", "NLW", 60, id="numpy"),
    pytest.param("numpy", "LW", 60, id="numpy-lw"),
    pytest.param("declined-diffusion", "NLW", 60, id="declined-diffusion"),
])
def test_a_finite_run_scans_once_on_the_kernel_path(monkeypatch, numpy_only, path, kind, scans):
    # the bound calls wrote nothing that is not finite after the first log point's
    # scan, so no later log point scans. numpy's updates, an LW net's only writes,
    # set check_due on every call, and so does numpy's diffusion where a bound call
    # declines the rows
    if path != "numpy" and kernel.load() is None:
        pytest.skip("the probe kernel cannot be built here")
    numpy_only.force(path == "numpy")
    hp = NLW.replace(r_res=64) if kind == "NLW" else LW
    net = init_network((2, 32, 32, 1), kind, hp, _rng([62, 0]))
    if path == "declined-diffusion":
        net._workspace.diffuse = lambda n_hit, scale: -1
    args, vals = _toy_data(n=64, seed=9)
    scanned = []

    def counted(scanned_net):
        scanned.append(scanned_net)
        return find_nonfinite(scanned_net)

    monkeypatch.setattr(train, "find_nonfinite", counted)
    rows = Trainer(net, args, vals, seed=10).run(600, log_every=10)
    numpy_only.check(net)
    assert len(rows) == 60 and find_nonfinite(net) is None
    assert len(scanned) == scans


def test_trainer_error_window_decreases_on_learnable_problem():
    rng = np.random.default_rng(36)
    args = rng.uniform(-0.5, 0.5, (64, 2))
    vals = np.tanh(args @ np.array([[0.8], [-0.6]]))
    net = init_network((2, 4, 1), "NLW", NLW, _rng([36, 0]))
    rows = Trainer(net, args, vals, seed=0).run(4000, log_every=1000)
    assert rows[-1][1] < rows[0][1]


@settings(max_examples=60, deadline=None)
@example(r_c=1.0 - 2**-53, r_b=0.0, zeta=1.0, v_min=0.5, v_p=1e-3, seed=0, iterations=40)
@given(r_c=st.floats(0.0, 1.0, exclude_max=True), r_b=st.floats(0.0, 1e3),
       zeta=st.floats(0.0, 1.0), v_min=st.floats(0.0, 0.5, exclude_min=True),
       v_p=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**16),
       iterations=st.integers(1, 40))
def test_visit_entries_stay_finite_and_at_least_v_min(r_c, r_b, zeta, v_min, v_p, seed,
                                                      iterations):
    # every valid setting; v_p below v_min is allowed and the tables start at v_min.
    # Stored entries are written at or above v_min, and the visit values, which
    # scale them down, are floored there.
    hp = NLW.replace(r_res=8, r_c=r_c, r_b=r_b, zeta=zeta, v_min=v_min, v_p=v_p)
    args, vals = _toy_data(n=13, seed=seed)
    args *= 2.4                                          # past the domain edges too
    net = init_network((2, 3, 2, 1), "NLW", hp, _rng([seed, 0]))
    tr = Trainer(net, args, vals, seed=seed)
    for _ in range(iterations):
        assert (net.visits >= v_min).all()
        tr.run(1, log_every=0)
        assert np.isfinite(net.visits).all()
        assert (net.visits >= v_min).all()
        settled = net.settled_visits()
        assert np.isfinite(settled).all()
        assert (settled >= v_min).all()
