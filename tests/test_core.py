"""Structure, LUT interpolation, and forward-pass behaviour."""
import numpy as np
import pytest

from lutnet.core import (
    find_nonfinite,
    forward_batch,
    forward_network,
    grid_position,
    init_network,
    interpolate,
    lut_grid,
    lut_grid_point,
    segment_coords,
)
from lutnet.hyper import Hyperparameters, default_hyperparameters


HP = default_hyperparameters("NLW")
UNIT = Hyperparameters(r_res=2, i_min=0.0, i_max=1.0)


# ---------------------------------------------------------------------------
# Grid and interpolation

def test_grid_spans_domain_with_equal_spacing():
    grid = lut_grid(HP)
    assert grid.shape == (HP.r_res,)
    assert grid[0] == HP.i_min
    assert grid[-1] == HP.i_max
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0], atol=1e-15)


def test_grid_point_bounds_checked():
    with pytest.raises(ValueError):
        lut_grid_point(-1, HP)
    with pytest.raises(ValueError):
        lut_grid_point(HP.r_res, HP)


def test_grid_position_clamps_out_of_domain():
    assert grid_position(-5.0, HP) == 0.0
    assert grid_position(5.0, HP) == HP.r_res - 1
    assert grid_position(HP.i_min, HP) == 0.0
    assert grid_position(HP.i_max, HP) == HP.r_res - 1


def test_grid_position_scalar_matches_array():
    xs = np.array([-2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0])
    batch = grid_position(xs, HP)
    singles = [grid_position(float(x), HP) for x in xs]
    assert np.array_equal(batch, singles)


def test_segment_coords_top_edge_uses_last_segment():
    lo, frac = segment_coords(HP.i_max, HP)
    assert lo == HP.r_res - 2
    assert frac == 1.0


def test_segment_coords_on_grid_points():
    grid = lut_grid(HP)
    lo, frac = segment_coords(grid[:-1], HP)
    assert np.array_equal(lo, np.arange(HP.r_res - 1))
    # grid points computed by the same formula land at fraction exactly 0
    assert np.all(frac == 0.0)


def test_interpolate_midpoint_and_edges():
    table = np.array([0.0, 1.0])
    assert interpolate(table, 0.5, UNIT) == 0.5
    assert interpolate(table, 0.0, UNIT) == 0.0
    assert interpolate(table, 1.0, UNIT) == 1.0


def test_interpolate_clamps_to_edge_entries():
    table = np.array([2.0, -3.0])
    assert interpolate(table, -10.0, UNIT) == 2.0
    assert interpolate(table, 10.0, UNIT) == -3.0


def test_interpolate_rejects_wrong_table_length():
    with pytest.raises(ValueError):
        interpolate(np.zeros(3), 0.5, UNIT)


def test_interpolate_exact_at_grid_points_and_bounded_between():
    rng = np.random.default_rng(11)
    for _ in range(200):
        table = rng.normal(size=HP.r_res)
        j = rng.integers(0, HP.r_res)
        x = lut_grid_point(int(j), HP)
        assert abs(interpolate(table, x, HP) - table[j]) < 1e-12
        x = rng.uniform(HP.i_min, HP.i_max)
        v = interpolate(table, x, HP)
        lo, _ = segment_coords(x, HP)
        pair = table[lo : lo + 2]
        assert pair.min() - 1e-12 <= v <= pair.max() + 1e-12


def test_interpolate_linear_within_a_segment():
    table = np.random.default_rng(3).normal(size=HP.r_res)
    a = lut_grid_point(5, HP)
    b = lut_grid_point(6, HP)
    mid = interpolate(table, (a + b) / 2, HP)
    assert abs(mid - (table[5] + table[6]) / 2) < 1e-12


# ---------------------------------------------------------------------------
# Initialization

def test_init_shapes_and_ranges():
    net = init_network((2, 4, 1), "NLW", HP, np.random.default_rng(0))
    assert net.sizes == (2, 4, 1)
    assert net.connection_count() == 17
    assert net.lut_connection_count() == 12
    for lay in net.layers:
        assert np.all(np.abs(lay.w) <= 0.5)
        assert np.all(np.abs(lay.bias) <= 0.5)
        assert lay.lut.shape == (lay.n_out, lay.n_in, HP.r_res)
        assert np.all(lay.visits == HP.v_p)


def test_init_lut_tables_are_affine_ramps():
    net = init_network((3, 5, 2), "NLW", HP, np.random.default_rng(1))
    grid = lut_grid(HP)
    for lay in net.layers:
        flat = lay.lut.reshape(-1, HP.r_res)
        for table in flat:
            second = np.diff(table, n=2)
            assert np.all(np.abs(second) < 1e-12)
            slope = (table[-1] - table[0]) / (grid[-1] - grid[0])
            intercept = table[0] - slope * grid[0]
            assert abs(slope) <= 0.25
            assert abs(intercept) <= 0.25


def test_init_lw_has_no_tables():
    net = init_network((2, 4, 1), "LW", default_hyperparameters("LW"),
                       np.random.default_rng(0))
    assert net.lut_connection_count() == 0
    for lay in net.layers:
        assert lay.lut is None and lay.visits is None


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_network((3,), "LW", HP, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_network((2, 0, 1), "LW", HP, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_network((2, 1), "bogus", HP, np.random.default_rng(0))


def test_init_deterministic_per_seed():
    a = init_network((2, 3, 1), "NLW", HP, np.random.default_rng(9))
    b = init_network((2, 3, 1), "NLW", HP, np.random.default_rng(9))
    c = init_network((2, 3, 1), "NLW", HP, np.random.default_rng(10))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.lut, lb.lut)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


# ---------------------------------------------------------------------------
# Forward pass

def test_forward_inputs_pass_through_unchanged():
    net = init_network((3, 2, 1), "NLW", HP, np.random.default_rng(2))
    x = np.array([0.9, -1.4, 0.2])            # beyond tanh range on purpose
    _, trace = forward_network(net, x)
    assert np.array_equal(trace.inputs, x)
    assert np.array_equal(trace.layers[0].inputs, x)


def test_forward_lw_matches_manual_chain():
    hp = default_hyperparameters("LW")
    net = init_network((2, 3, 2), "LW", hp, np.random.default_rng(4))
    x = np.array([0.3, -0.2])
    y, trace = forward_network(net, x)
    h = np.tanh(net.layers[0].w @ x + net.layers[0].bias)
    out = np.tanh(net.layers[1].w @ h + net.layers[1].bias)
    assert np.allclose(y, out, atol=1e-15)
    assert np.allclose(trace.layers[0].activations, h, atol=1e-15)


def test_forward_nlw_adds_interpolated_tables():
    net = init_network((2, 1), "NLW", HP, np.random.default_rng(5))
    x = np.array([0.4, -0.6])
    y, trace = forward_network(net, x)
    lay = net.layers[0]
    u = lay.bias[0]
    for s in range(2):
        u += lay.w[0, s] * x[s] + interpolate(lay.lut[0, s], float(x[s]), HP)
    assert abs(y[0] - np.tanh(u)) < 1e-14
    assert abs(trace.layers[0].combination[0] - u) < 1e-14


def test_forward_trace_lut_values_match_reads():
    net = init_network((2, 3, 1), "NLW", HP, np.random.default_rng(6))
    x = np.array([0.25, -0.75])
    _, trace = forward_network(net, x)
    lt = trace.layers[0]
    for d in range(3):
        for s in range(2):
            expect = interpolate(net.layers[0].lut[d, s], float(x[s]), HP)
            assert abs(lt.lut_values[d, s] - expect) < 1e-14


def test_forward_batch_equals_single_forwards():
    for kind in ("LW", "NLW"):
        hp = default_hyperparameters(kind)
        net = init_network((3, 4, 2), kind, hp, np.random.default_rng(7))
        xs = np.random.default_rng(8).uniform(-1.5, 1.5, (43, 3))
        # frac 0 and 1 edges: both domain edges and a grid point
        xs[40] = hp.i_min
        xs[41] = hp.i_max
        xs[42] = lut_grid(hp)[hp.r_res // 3]
        batch = forward_batch(net, xs, chunk=16)
        for i in range(43):
            y, _ = forward_network(net, xs[i])
            assert np.array_equal(batch[i], y)


def test_forward_output_bounded_by_tanh():
    net = init_network((2, 8, 1), "NLW", HP, np.random.default_rng(12))
    xs = np.random.default_rng(13).uniform(-3, 3, (64, 2))
    assert np.all(np.abs(forward_batch(net, xs)) < 1.0)


# ---------------------------------------------------------------------------
# Cloning and diagnostics

def test_clone_is_independent():
    net = init_network((2, 2, 1), "NLW", HP, np.random.default_rng(15))
    twin = net.clone()
    twin.layers[0].w[0, 0] += 1.0
    twin.layers[0].lut[0, 0, 0] += 1.0
    assert net.layers[0].w[0, 0] != twin.layers[0].w[0, 0]
    assert net.layers[0].lut[0, 0, 0] != twin.layers[0].lut[0, 0, 0]


def test_find_nonfinite_names_the_location():
    net = init_network((2, 2, 1), "NLW", HP, np.random.default_rng(16))
    assert find_nonfinite(net) is None
    net.layers[1].w[0, 1] = np.nan
    msg = find_nonfinite(net)
    assert "layer 1" in msg
    net.layers[1].w[0, 1] = 0.0
    net.layers[0].lut[1, 0, 5] = np.inf
    assert "layer 0" in find_nonfinite(net)


def test_nan_input_yields_nan_output_not_crash():
    net = init_network((2, 2, 1), "NLW", HP, np.random.default_rng(17))
    y, _ = forward_network(net, np.array([np.nan, 0.1]))
    assert np.isnan(y[0])
