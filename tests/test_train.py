"""Backprop, update rules, the iteration loop, and the Trainer."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutnet import train as train_module
from lutnet.core import (
    LutConnection,
    forward_network,
    init_network,
    interpolate,
    lut_grid,
    segment_coords,
)
from lutnet.hyper import Hyperparameters, default_hyperparameters
from lutnet.modelio import load_model, save_model
from lutnet.train import (
    Trainer,
    TrainingDiverged,
    _apply_iteration,
    approx_lut_derivative,
    backprop,
    derivative_offsets,
    train_iteration,
    update_lut_component,
)
from reference import extract_params, max_param_difference, ref_iteration


NLW = default_hyperparameters("NLW")
LW = default_hyperparameters("LW")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Derivative probes

def test_derivative_offsets_frozen_sequence():
    offs = derivative_offsets(NLW)
    assert len(offs) == 9
    assert offs[0] == 0.15
    assert offs[-1] == 0.3215383215000002
    assert np.all(offs <= NLW.a_h)
    assert offs[-1] * NLW.a_m > NLW.a_h
    # consecutive ratio is the multiplier
    assert np.allclose(offs[1:] / offs[:-1], NLW.a_m, rtol=1e-12)


def test_derivative_offsets_single_when_multiplier_overshoots():
    hp = Hyperparameters(a_l=0.3, a_h=0.35, a_m=1.2)
    assert list(derivative_offsets(hp)) == [0.3]


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
    for a in derivative_offsets(NLW):
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
PARITY_CASES = (
    [pytest.param(kind, hp, (2, 3, 2), 60, id=name)
     for (kind, hp), name in zip(PARITY_CONFIGS, PARITY_IDS)]
    + [pytest.param(kind, hp, (2, 4, 3, 2), 40, id=f"{name}-3layer")
       for (kind, hp), name in zip(PARITY_CONFIGS, PARITY_IDS)]
)


@pytest.mark.parametrize("kind,hp,sizes,iterations", PARITY_CASES)
def test_iteration_matches_scalar_reference(kind, hp, sizes, iterations):
    net = init_network(sizes, kind, hp, _rng([21, 0]))
    params = extract_params(net)
    rng = np.random.default_rng(22)
    offsets = derivative_offsets(hp)
    n_gate = net.lut_connection_count()
    for _ in range(iterations):
        x = rng.uniform(-1.2, 1.2, 2)
        target = rng.uniform(-0.9, 0.9, 2)
        gate_u = rng.random(n_gate)
        err = _apply_iteration(net, x, target, gate_u, offsets)
        ref_err = ref_iteration(params, x, target, gate_u, hp, kind)
        assert abs(err - ref_err) < 1e-9
        assert max_param_difference(params, net) < 1e-9


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
        err = _apply_iteration(net, x, target, gate_u, derivative_offsets(hp))
        assert abs(err - ref_iteration(params, x, target, gate_u, hp, "NLW")) < 1e-12
        assert max_param_difference(params, net) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r_res=st.integers(2, 40),
       x=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
       target=st.floats(-0.9, 0.9))
def test_ungated_iteration_changes_at_most_two_adjacent_lut_entries(seed, r_res, x, target):
    hp = NLW.replace(r_res=r_res, zeta=0.0)
    net = init_network((2, 3, 1), "NLW", hp, _rng([seed, 0]))
    before = net.luts.copy()
    _apply_iteration(net, np.array(x), np.array([target]),
                     _rng([seed, 1]).random(net.lut_connection_count()), derivative_offsets(hp))
    for row_before, row_after in zip(before, net.luts):
        changed = np.flatnonzero(row_before != row_after)
        assert changed.size <= 2
        if changed.size == 2:
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
    err_b = _apply_iteration(twin, x, target, gate_u, derivative_offsets(NLW))
    assert err_a == err_b
    assert max_param_difference(extract_params(net), twin) == 0.0
    # both generators advanced identically
    assert rng_a.random() == rng_b.random()


# Probe pairs as the default ladder, wide enough to clamp at both edges, and
# on a domain narrower than tanh's range, where pairs of one input clamp to
# the same edge and drop out of the average.
PROBE_PROFILES = [
    pytest.param(NLW.replace(r_res=16, zeta=0.5), id="default"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, a_l=0.9, a_h=2.0), id="wide-probes"),
    pytest.param(NLW.replace(r_res=16, zeta=0.5, i_min=-0.3, i_max=0.3), id="narrow-domain"),
]


@pytest.mark.parametrize("sizes", [(2, 8, 1), (2, 4, 3, 2)], ids=["2-8-1", "2-4-3-2"])
@pytest.mark.parametrize("hp", PROBE_PROFILES)
def test_fused_probe_reads_match_public_forward_and_backprop(monkeypatch, sizes, hp):
    grid = lut_grid(hp)
    rows = np.array([[hp.i_min, 0.1], [hp.i_max, hp.i_min], [grid[5], grid[11]],
                     [hp.i_min - 0.7, hp.i_max + 1.4]])
    target = np.linspace(-0.5, 0.5, sizes[-1])
    offsets = derivative_offsets(hp)
    cached = init_network(sizes, "NLW", hp, _rng([40, len(sizes)]))
    uncached, public = cached.clone(), cached.clone()
    lo, frac = segment_coords(rows, hp)
    gate_u = _rng([41]).random((len(rows), cached.lut_connection_count()))
    for i, x in enumerate(rows):
        _, fused_trace = forward_network(cached, x, offsets, (lo[i], frac[i]))
        _, public_trace = forward_network(cached, x)
        assert public_trace.layers[1].slope is None
        for fused_delta, public_delta in zip(backprop(cached, fused_trace, target, offsets),
                                             backprop(cached, public_trace, target)):
            assert np.array_equal(fused_delta, public_delta)
        _apply_iteration(cached, x, target, gate_u[i], offsets, (lo[i], frac[i]))
        _apply_iteration(uncached, x, target, gate_u[i], offsets)
    # the same updates, with backprop estimating every slope from a public trace
    monkeypatch.setattr(train_module, "forward_network",
                        lambda net, x, *_: forward_network(net, x))
    for i, x in enumerate(rows):
        _apply_iteration(public, x, target, gate_u[i], offsets)
    for net in (uncached, public):
        for name in ("params", "luts", "visits"):
            assert np.array_equal(getattr(net, name), getattr(cached, name))


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


@pytest.mark.parametrize("bad", [(5, "args", np.nan), (7, "vals", np.inf), (3, "args", -np.inf)])
def test_trainer_rejects_nonfinite_data_naming_the_row(bad):
    row, which, value = bad
    net = init_network((2, 2, 1), "NLW", NLW, _rng([25, 1]))
    args, vals = _toy_data()
    {"args": args, "vals": vals}[which][row, -1] = value
    vals[9, 0] = np.nan                                  # a later bad row is not the one named
    with pytest.raises(ValueError, match=f"row {row} "):
        Trainer(net, args, vals, seed=0)


def test_trainer_caches_read_only_layer0_coordinates_for_nlw_only():
    args, vals = _toy_data()
    args[:3] = [[NLW.i_min, NLW.i_max], [lut_grid(NLW)[9], 0.0], [-1.7, 2.4]]
    tr = Trainer(init_network((2, 3, 1), "NLW", NLW, _rng([25, 2])), args, vals, seed=0)
    lo, frac = tr.input_coords
    for i, row in enumerate(args):
        row_lo, row_frac = segment_coords(row, NLW)
        assert np.array_equal(lo[i], row_lo) and np.array_equal(frac[i], row_frac)
    for arr in (lo, frac):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1
    lw = Trainer(init_network((2, 3, 1), "LW", LW, _rng([25, 3])), args, vals, seed=0)
    assert lw.input_coords is None
    # without the cache every iteration locates its row itself: same run
    uncached = Trainer(tr.net.clone(), args, vals, seed=0)
    uncached.input_coords = None
    tr.run(40, log_every=0)
    uncached.run(40, log_every=0)
    for name in ("params", "luts", "visits"):
        assert np.array_equal(getattr(tr.net, name), getattr(uncached.net, name))


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
@given(kind=st.sampled_from(["NLW", "LW"]), seed=st.integers(0, 2**16),
       n=st.integers(1, 90), split=st.floats(0.0, 1.0))
def test_resume_at_any_split_is_bit_exact(tmp_path_factory, kind, seed, n, split):
    # run(n) == run(k), save, load, restore, run(n - k): parameters and saved bytes
    k = int(split * n)
    hp = {"NLW": NLW.replace(r_res=8, zeta=0.3), "LW": LW}[kind]
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


@pytest.mark.parametrize("cadence", [{"log_every": -5}, {"checkpoint_every": -1}])
def test_trainer_rejects_negative_cadence(cadence):
    args, vals = _toy_data()
    net = init_network((2, 2, 1), "LW", LW, _rng([33, 1]))
    tr = Trainer(net, args, vals, seed=0)
    with pytest.raises(ValueError, match=next(iter(cadence))):
        tr.run(10, **cadence)
    assert tr.iteration == 0


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


def test_trainer_error_window_decreases_on_learnable_problem():
    rng = np.random.default_rng(36)
    args = rng.uniform(-0.5, 0.5, (64, 2))
    vals = np.tanh(args @ np.array([[0.8], [-0.6]]))
    net = init_network((2, 4, 1), "NLW", NLW, _rng([36, 0]))
    rows = Trainer(net, args, vals, seed=0).run(4000, log_every=1000)
    assert rows[-1][1] < rows[0][1]
