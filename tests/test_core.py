"""Structure, LUT interpolation, and forward-pass behaviour."""
import tracemalloc

import numpy as np
import pytest

from lutnet import core, kernel
from lutnet.core import (
    Network,
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
    for hp in (HP, HP.replace(r_res=255, i_min=-0.3, i_max=0.7)):
        assert lut_grid(hp).tolist() == [lut_grid_point(j, hp) for j in range(hp.r_res)]


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


@pytest.mark.parametrize("sizes", [(2.7, 3, 1), (2, 0, 1), (2, True, 1), (2, 3.0, 1), [2]],
                         ids=["float", "zero-nodes", "bool", "integral-float", "one-layer"])
@pytest.mark.parametrize("build", [
    lambda sizes: Network(sizes, "NLW", HP),
    lambda sizes: init_network(sizes, "NLW", HP, np.random.default_rng(0)),
], ids=["Network", "init_network"])
def test_network_checks_its_architecture(build, sizes):
    with pytest.raises(ValueError, match="bad architecture"):
        build(sizes)


def test_network_takes_numpy_integer_sizes():
    net = Network(np.array([2, 3, 1]), "LW", HP)
    assert net.sizes == (2, 3, 1) and all(type(s) is int for s in net.sizes)


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
    y, _ = forward_network(net, x)
    lay = net.layers[0]
    u = lay.bias[0]
    for s in range(2):
        u += lay.w[0, s] * x[s] + interpolate(lay.lut[0, s], float(x[s]), HP)
    assert abs(y[0] - np.tanh(u)) < 1e-14


def test_forward_trace_lut_values_match_reads():
    net = init_network((2, 3, 1), "NLW", HP, np.random.default_rng(6))
    x = np.array([0.25, -0.75])
    _, trace = forward_network(net, x)
    lt = trace.layers[0]
    for d in range(3):
        for s in range(2):
            expect = interpolate(net.layers[0].lut[d, s], float(x[s]), HP)
            assert abs(lt.lut_values[d, s] - expect) < 1e-14


def test_forward_batch_equals_single_forwards(monkeypatch):
    # A budget of 20 rows of the widest layer's 12 connections puts chunk
    # boundaries at rows 20 and 40 of a 43-row batch.
    monkeypatch.setattr(core, "BATCH_ENTRIES", 20 * 12)
    n, boundary = 43, 20
    for kind in ("LW", "NLW"):
        hp = default_hyperparameters(kind)
        net = init_network((3, 4, 2), kind, hp, np.random.default_rng(7))
        xs = np.random.default_rng(8).uniform(-1.5, 1.5, (n, 3))
        # frac 0 and 1 edges: both domain edges and a grid point, on both
        # sides of a chunk boundary and in the short last chunk
        for i in (boundary - 3, boundary, n - 3):
            xs[i] = hp.i_min
            xs[i + 1] = hp.i_max
            xs[i + 2] = lut_grid(hp)[hp.r_res // 3]
        batch = forward_batch(net, xs)
        for i in range(n):
            y, _ = forward_network(net, xs[i])
            assert np.array_equal(batch[i], y)


def test_forward_batch_memory_does_not_grow_with_the_batch():
    # 4096 rows through the widest benchmark net: 4096-row chunks peaked at 101 MiB
    net = init_network((2, 32, 32, 1), "NLW", HP.replace(r_res=256), np.random.default_rng(3))
    xs = np.random.default_rng(4).uniform(-0.6, 0.6, (4096, 2))
    tracemalloc.start()
    try:
        forward_batch(net, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def _on_both_paths(monkeypatch):
    """Yield on the path the process selects (the kernel where it loads), then on numpy."""
    yield
    monkeypatch.setattr(kernel, "_loaded", "numpy forced by the test")
    yield


def test_forward_batch_matches_single_forwards_on_wide_layers(monkeypatch):
    # Bit-exact: each batch row's connection outputs lie contiguous in C order,
    # so numpy sums them pairwise as it sums a single sample's. Built from the
    # gather's destination-innermost layout, as w * act + lut_vals, they were
    # summed in sequence, and with 8 or more inputs the last bits differed.
    net = init_network((2, 32, 32, 1), "NLW", HP, np.random.default_rng(18))
    xs = np.random.default_rng(19).uniform(-0.6, 0.6, (200, 2))
    single = np.array([forward_network(net, x)[0] for x in xs])
    for _ in _on_both_paths(monkeypatch):
        assert np.array_equal(forward_batch(net, xs), single)


@pytest.mark.parametrize("sizes,entries", [
    pytest.param((2, 32, 32, 1), 20 * 32 * 32, id="2-32-32-1"),
    pytest.param((2, 9, 1), 20 * 18, id="2-9-1"),
])
def test_forward_batch_bits_do_not_depend_on_the_chunk_size(monkeypatch, sizes, entries):
    # 20-row chunks put boundaries at rows 20 and 40 of a 43-row batch; 9 and
    # 32 inputs per node are enough for numpy's pairwise sum to show its order
    net = init_network(sizes, "NLW", HP.replace(r_res=64), np.random.default_rng(20))
    xs = np.random.default_rng(21).uniform(-1.5, 1.5, (43, 2))
    xs[19:22] = [[HP.i_min], [HP.i_max], [lut_grid(net.hp)[21]]]   # both sides of row 20
    single = np.array([forward_network(net, x)[0] for x in xs])
    for _ in _on_both_paths(monkeypatch):
        whole = forward_batch(net, xs)
        with monkeypatch.context() as chunked:
            chunked.setattr(core, "BATCH_ENTRIES", entries)
            assert np.array_equal(forward_batch(net, xs), single)
        assert np.array_equal(whole, single)


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
    assert msg == "layer 1: non-finite w at dst 0, src 1"
    net.layers[1].w[0, 1] = 0.0
    net.layers[0].lut[1, 0, 5] = np.inf
    assert find_nonfinite(net) == "layer 0: non-finite lut at dst 1, src 0, entry 5"
    net.layers[0].lut[1, 0, 5] = 0.0
    net.layers[0].visits[0, 1, 2] = np.nan
    assert find_nonfinite(net) == "layer 0: non-finite visits at dst 0, src 1, entry 2"
    net.layers[0].visits[0, 1, 2] = 0.1
    net.layers[1].bias[0] = -np.inf
    assert find_nonfinite(net) == "layer 1: non-finite bias at dst 0"


def test_nan_input_yields_nan_output_not_crash():
    net = init_network((2, 2, 1), "NLW", HP, np.random.default_rng(17))
    y, _ = forward_network(net, np.array([np.nan, 0.1]))
    assert np.isnan(y[0])
