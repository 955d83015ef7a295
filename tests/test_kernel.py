"""The compiled kernels: bit-identity with numpy, the fallback, lazy loading."""
import gc
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutnet import core, kernel, train
from lutnet.core import (
    VISIT_SCALE_MIN,
    _layer_outputs,
    _layer_outputs_numpy,
    _probed_read_numpy,
    forward_batch,
    forward_network,
    init_network,
    lut_grid,
)
from lutnet.hyper import MAX_PROBE_OFFSETS, Hyperparameters, default_hyperparameters
from lutnet.regularize import _diffuse_rows, _diffuse_rows_numpy
from lutnet.train import Trainer, _backprop_numpy, _updates_numpy

KERNEL = kernel.load()
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason=f"the probe kernel cannot be built here: {kernel.describe()}")

NLW = default_hyperparameters("NLW")
R8 = NLW.replace(r_res=8)


def _bits(a):
    """An int64 view of a float array, so that -0.0 and NaN payloads compare too."""
    return np.ascontiguousarray(a).view(np.int64)


def _kernel_read(lut, w, x, hp):
    """The kernel's pass of a layer with weights w and tables lut (None for LW) at x
    as fresh (lo, frac, read, slope, outputs), the first four None for LW, or None
    when ``bind_read`` declines the arrays."""
    n_out, n_in = w.shape[0], x.shape[0]
    out = (None,) * 4 if lut is None else (
        np.empty(n_in, dtype=np.intp), np.empty(n_in), np.empty((n_out, n_in)),
        np.empty((n_out, n_in)))
    outputs = np.empty((n_out, n_in))
    read = KERNEL.bind_read(lut, w, x, hp, *out, outputs)
    if read is None:
        return None
    read()
    return (*out, outputs)


def _bound(luts, visits, hit, hp):
    """What ``regularize._diffuse_rows`` reads and writes of a ``core.Workspace``,
    its ``check_due`` cleared, with the kernel's diffusion bound to these arrays
    where it takes them."""
    check_due = np.zeros(1, dtype=np.intp)
    return SimpleNamespace(luts=luts, visits=visits, hit=hit, check_due=check_due,
                           diffuse=KERNEL.bind_diffusion(luts, visits, hit, check_due, hp))


@st.composite
def probe_reads(draw):
    """(lut, w, x, hp) as one sample's layer, lut None for an LW layer."""
    n_out, n_in = draw(st.integers(1, 33)), draw(st.integers(1, 33))
    r_res = draw(st.integers(2, 256))
    i_min = draw(st.floats(-3.0, 1.0))
    i_max = i_min + draw(st.floats(1e-3, 5.0))
    span = i_max - i_min
    # ladders from one offset to MAX_PROBE_OFFSETS, starting near or beyond the span
    k = draw(st.integers(1, MAX_PROBE_OFFSETS))
    a_l = draw(st.floats(1e-3 * span, 2.0 * span))
    a_m = draw(st.floats(1.001, 1.5))
    hp = Hyperparameters(r_res=r_res, i_min=i_min, i_max=i_max, a_l=a_l, a_m=a_m,
                         a_h=a_l * a_m ** (k - 1) * (1.0 + 1e-9))
    offsets = hp.probe_offsets
    grid = lut_grid(hp)
    point = st.one_of(
        st.floats(i_min - 2.0, i_max + 2.0),                       # inside and outside
        st.sampled_from([i_min, i_max, math.nan, math.inf, -math.inf, 0.0, -0.0]),
        st.integers(0, r_res - 1).map(lambda j: grid[j]),           # grid points
        st.integers(0, len(offsets) - 1).map(lambda i: i_min + offsets[i]),   # probes
        st.integers(0, len(offsets) - 1).map(lambda i: i_max - offsets[i]),   # on edges
    )
    x = np.array(draw(st.lists(point, min_size=n_in, max_size=n_in)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((n_out, n_in)) * 10.0 ** rng.integers(-3, 4)
    lut = None
    if draw(st.booleans()):                     # NLW, else an LW layer: no table
        lut = rng.standard_normal((n_out, n_in, r_res)) * 10.0 ** rng.integers(-3, 4)
    return lut, w, x, hp


@needs_kernel
@settings(max_examples=300, deadline=None)
@example(case=(np.linspace(-1.0, 1.0, 64)[None, None] ** 3, np.array([[0.5]]),
               np.array([0.3]), NLW))
@example(case=(None, np.array([[0.5]]), np.array([0.3]), NLW))
@given(case=probe_reads())
def test_kernel_matches_numpy_probe_read_bit_for_bit(case):
    lut, w, x, hp = case
    got = _kernel_read(lut, w, x, hp)
    if lut is None:                             # LW: the outputs w * x alone
        assert got is not None and got[:4] == (None,) * 4
        assert np.array_equal(_bits(got[4]), _bits(w * x))
        return
    if w.shape == (1, 1):                       # numpy sums a 1x1 read pairwise: left to it
        assert got is None
        return
    with np.errstate(invalid="ignore"):
        want = _probed_read_numpy(lut, x, hp)
        want = (*want, w * x + want[2])         # the connection outputs, as numpy adds them
    assert got is not None
    assert np.array_equal(got[0], want[0])
    for mine, ref in zip(got[1:], want[1:]):
        assert mine.shape == ref.shape
        assert np.array_equal(_bits(mine), _bits(ref))


@needs_kernel
def test_probed_read_runs_the_kernel_when_it_loads(monkeypatch):
    def numpy_read(*_, **__):
        raise AssertionError("the numpy probe read ran")

    monkeypatch.setattr(core, "_probed_read_numpy", numpy_read)
    net = init_network((3, 2), "NLW", R8, np.random.default_rng(8))
    layer = forward_network(net, np.zeros(3))[1].layers[0]
    assert layer.lut_values.shape == layer.slope.shape == (2, 3)


@needs_kernel
@pytest.mark.parametrize("change", [
    pytest.param(lambda lut, w, x: (lut[:, ::-1], w, x), id="strided-table"),
    pytest.param(lambda lut, w, x: (lut.astype(np.float32), w, x), id="float32"),
    pytest.param(lambda lut, w, x: (lut, w, x[:2]), id="cols-unlike-x"),
    pytest.param(lambda lut, w, x: (np.ascontiguousarray(lut[:, :2]), w, x),
                 id="column-outside"),
    pytest.param(lambda lut, w, x: (lut, np.asfortranarray(w), x), id="strided-weights"),
    pytest.param(lambda lut, w, x: (lut, w[:1], x), id="weights-unlike-table"),
    pytest.param(lambda lut, w, x: (None, w, x[:2]), id="lw-cols-unlike-x"),
])
def test_kernel_declines_what_it_does_not_take(change):
    # numpy then reads them, input j from table column j, or raises as it always did
    rng = np.random.default_rng(8)
    lut, w, x = change(rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 3)),
                       np.linspace(-1, 1, 3))
    assert _kernel_read(lut, w, x, R8) is None
    if lut is None:                             # an LW layer has nothing to read
        return
    if lut.shape[1] < x.shape[0]:               # an input with no table column
        with pytest.raises(IndexError):
            _probed_read_numpy(lut, x, R8)
        return
    # a workspace layer's fallback writes numpy's read into its slices
    got = (np.empty(3, dtype=np.intp), np.empty(3), np.empty((2, 3)), np.empty((2, 3)))
    got = tuple(a[..., :x.shape[0]] for a in got)
    assert _probed_read_numpy(lut, x, R8, out=got) is got
    for g, w in zip(got, _probed_read_numpy(lut, x, R8)):
        assert np.array_equal(_bits(g), _bits(w))


@st.composite
def layer_batches(draw):
    """(lut, w, act, hp) as a LUT layer of a batch pass."""
    n_out, n_in = draw(st.integers(1, 33)), draw(st.integers(1, 33))
    rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    r_res = draw(st.integers(2, 256))
    i_min = draw(st.floats(-3.0, 1.0))
    i_max = i_min + draw(st.floats(1e-3, 5.0))
    hp = Hyperparameters(r_res=r_res, i_min=i_min, i_max=i_max, a_l=1e-3 * (i_max - i_min))
    grid = lut_grid(hp)
    point = st.one_of(
        st.floats(i_min - 2.0, i_max + 2.0),                       # inside and outside
        st.sampled_from([i_min, i_max, math.nan, math.inf, -math.inf, 0.0, -0.0]),
        st.integers(0, r_res - 1).map(lambda j: grid[j]),           # grid points
    )
    act = np.array(draw(st.lists(point, min_size=rows * n_in, max_size=rows * n_in)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lut = rng.standard_normal((n_out, n_in, r_res)) * 10.0 ** rng.integers(-3, 4)
    w = rng.standard_normal((n_out, n_in))
    return lut, w, act.reshape(rows, n_in), hp


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(case=layer_batches())
def test_kernel_matches_numpy_layer_outputs_bit_for_bit(case):
    lut, w, act, hp = case
    got = KERNEL.layer_outputs(lut, w, act, hp)
    with np.errstate(invalid="ignore"):
        want = _layer_outputs_numpy(lut, w, act, hp)
    assert got is not None
    assert got.shape == want.shape == (lut.shape[0], *act.shape)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))



@needs_kernel
def test_kernel_takes_a_later_layers_transposed_rows():
    rng = np.random.default_rng(9)
    lut, w = rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 3))
    act = np.tanh(np.linspace(-2.0, 2.0, 15)).reshape(3, 5).T   # as _forward_layers passes it
    got = KERNEL.layer_outputs(lut, w, act, R8)
    assert np.array_equal(_bits(got), _bits(_layer_outputs_numpy(lut, w, act, R8)))


@needs_kernel
def test_layer_outputs_run_the_kernel_when_it_loads(monkeypatch):
    def numpy_layer(*_):
        raise AssertionError("the numpy batch layer ran")

    monkeypatch.setattr(core, "_layer_outputs_numpy", numpy_layer)
    out = _layer_outputs(np.zeros((2, 3, 8)), np.ones((2, 3)), np.zeros((4, 3)), R8)
    assert out.shape == (2, 4, 3)


@needs_kernel
@pytest.mark.parametrize("change", [
    pytest.param(lambda lut, w: (lut[:, ::-1], w), id="strided-table"),
    pytest.param(lambda lut, w: (lut.astype(np.float32), w), id="float32-table"),
    pytest.param(lambda lut, w: (lut, np.asfortranarray(w)), id="strided-weights"),
    pytest.param(lambda lut, w: (lut, w.astype(np.int32)), id="int32-columns-of-weights"),
    pytest.param(lambda lut, w: (np.tile(lut, (1, 2, 1)), w), id="table-unlike-weights"),
    pytest.param(lambda lut, w: (np.tile(lut, (1, 1025, 1)), np.tile(w, (1, 1025))),
                 id="over-4096-inputs"),
])
def test_kernel_declines_a_batch_layer_it_does_not_take_and_numpy_reads_it(change):
    rng = np.random.default_rng(10)
    lut, w = change(rng.standard_normal((3, 4, 8)), rng.standard_normal((3, 4)))
    act = rng.uniform(-1.5, 1.5, (5, w.shape[1]))
    assert KERNEL.layer_outputs(lut, w, act, R8) is None
    want = _layer_outputs_numpy(lut, w, act, R8)
    assert np.array_equal(_bits(_layer_outputs(lut, w, act, R8)), _bits(want))


@needs_kernel
def test_kernel_declines_a_batch_column_outside_the_table():
    # input 2 has no column in the table
    lut, w, act = np.ones((2, 2, 8)), np.ones((2, 3)), np.zeros((4, 3))
    assert KERNEL.layer_outputs(lut, w, act, R8) is None
    with pytest.raises(IndexError):                 # numpy then raises as it always did
        _layer_outputs(lut, w, act, R8)


# The perfbench nets (NLW 2-8-1 r64, NLW 2-32-32-1 r256, LW 5-32-32-1) write every
# layer's connection outputs in C: one read per layer and iteration, bound once, an LW
# layer's with no table. NLW 2-1-1's later layer is a 1x1 read, which the kernel
# declines to bind, so it goes to numpy every time; LW 2-1-1's has no table, and binds.
@needs_kernel
@pytest.mark.parametrize("sizes,kind,r_res,reads,declined", [
    pytest.param((2, 8, 1), "NLW", 64, 2, 0, id="spirals-small"),
    pytest.param((2, 32, 32, 1), "NLW", 256, 3, 0, id="spirals-wide-r256"),
    pytest.param((5, 32, 32, 1), "LW", 64, 3, 0, id="md2-lw"),
    pytest.param((2, 1, 1), "NLW", 64, 2, 1, id="one-by-one"),
    pytest.param((2, 1, 1), "LW", 64, 2, 0, id="lw-one-by-one"),
])
def test_training_probe_reads_run_in_c_unless_they_are_1x1(monkeypatch, sizes, kind, r_res,
                                                           reads, declined):
    binds, c_reads, numpy_reads = [], [], []
    bind, numpy_read = kernel.Kernel.bind_read, core._probed_read_numpy

    def counted_bind(*args):
        read = bind(*args)
        binds.append(read)
        return read and (lambda: c_reads.append(1) or read())

    monkeypatch.setattr(kernel.Kernel, "bind_read", counted_bind)
    monkeypatch.setattr(core, "_probed_read_numpy",
                        lambda *args, **kw: numpy_reads.append(1) or numpy_read(*args, **kw))
    rng = np.random.default_rng(6)
    net = init_network(sizes, kind, default_hyperparameters(kind).replace(r_res=r_res), rng)
    trainer = Trainer(net, rng.uniform(-1, 1, (16, sizes[0])), rng.uniform(-1, 1, (16, 1)), 7)
    trainer.run(20)
    trainer.run(30)                             # the same workspace: bound once
    assert len(binds) == reads
    assert sum(read is None for read in binds) == declined
    assert len(c_reads) == 50 * (reads - declined)
    assert len(numpy_reads) == 50 * declined


@needs_kernel
@pytest.mark.parametrize("sizes,kind,r_res", [
    pytest.param((2, 32, 32, 1), "NLW", 256, id="spirals-wide-r256"),
    pytest.param((5, 32, 32, 1), "LW", 64, id="md2-lw"),
])
def test_a_forward_pass_allocates_nothing_on_the_kernel_path(sizes, kind, r_res):
    # each layer's bound read writes its connection outputs into the workspace, and
    # numpy's sum, bias add and tanh write into the next layer's inputs
    rng = np.random.default_rng(22)
    net = init_network(sizes, kind, default_hyperparameters(kind).replace(r_res=r_res), rng)
    ws = net._workspace
    assert all(hasattr(step, "arrays") for step, *_ in ws.layer_passes)    # bound calls
    x = rng.uniform(-1.0, 1.0, sizes[0])
    ws.forward(x)
    tracemalloc.start()
    try:
        for _ in range(100):
            ws.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


@st.composite
def gated_rows(draw):
    """(luts, visits, hit, scale, hp) as the gated diffusion of one iteration."""
    rows, r_res = draw(st.integers(1, 12)), draw(st.integers(2, 256))
    strength = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))
    hp = Hyperparameters(r_res=r_res, r_a=draw(strength), r_b=draw(strength),
                         v_min=draw(st.sampled_from([1e-16, 0.5, draw(st.floats(1e-300, 0.5))])))
    scale = draw(st.one_of(st.sampled_from([1.0, VISIT_SCALE_MIN]),
                           st.floats(1.0, 4.0).map(lambda f: f * VISIT_SCALE_MIN),
                           st.floats(VISIT_SCALE_MIN, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    luts = rng.standard_normal((rows, r_res)) * 10.0 ** rng.integers(-3, 4)
    # visit values from 0 up, so that some settle below v_min, and some rows at v_min
    values = rng.uniform(0.0, 1.0, (rows, r_res)) ** rng.integers(1, 40)
    values[rng.random(rows) < 0.3] = hp.v_min
    # a run of equal visits at the same columns of about half the rows, so that both
    # lanes of two rows meet equal pairs together, or an equal inf or NaN run. Such a
    # run stands in for the one non-finite entry below: where NaNs of both signs meet,
    # the result's sign follows the operand order, which gcc may swap in an addition
    run = draw(st.sampled_from([rng.uniform(hp.v_min, 1.0), 1.0, math.inf, math.nan]))
    first, stop = np.sort(rng.integers(0, r_res + 1, 2))
    values[rng.random(rows) < 0.5, first:stop] = run
    if math.isfinite(run) and draw(st.booleans()):  # a non-finite entry passes through as numpy's
        table = draw(st.sampled_from([luts, values]))
        table[tuple(rng.integers(0, table.shape))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    hit = np.flatnonzero(rng.random(rows) < draw(st.floats(0.0, 1.0)))
    return luts, values / scale, hit, scale, hp


def _diffused(bound, n_hit, scale):
    """Whether the kernel's bound diffusion took the rows and ran."""
    return bound.diffuse is not None and bound.diffuse(n_hit, scale) == 0


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(case=gated_rows())
def test_kernel_matches_numpy_diffusion_bit_for_bit(case):
    luts, visits, hit, scale, hp = case
    got_luts, got_visits = luts.copy(), visits.copy()
    assert _diffused(_bound(got_luts, got_visits, hit, hp), hit.shape[0], scale)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        _diffuse_rows_numpy(luts, visits, hit, scale, hp)
    assert np.array_equal(_bits(got_luts), _bits(luts))    # rows outside hit as well
    assert np.array_equal(_bits(got_visits), _bits(visits))


# Values that a bound call's writes can carry or make: NaN, infinities, and finite
# entries near the largest double, whose (a + b) * 0.5, visit bump or step overflows.
EXTREMES = [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1e308]


def _extremes(draw, rng, values):
    """Puts some of EXTREMES into values in place, in runs along its last axis so
    that a pair of neighbours can hold two of them, or none."""
    flat = values.reshape(-1, values.shape[-1])
    for _ in range(draw(st.integers(0, 3))):
        row, first = rng.integers(0, flat.shape[0]), rng.integers(0, flat.shape[1])
        flat[row, first:first + rng.integers(1, 4)] = draw(st.sampled_from(EXTREMES))


@st.composite
def flagged_diffusion(draw):
    """A ``gated_rows`` case with some EXTREMES in its tables, and the value of
    check_due before the call."""
    luts, visits, hit, scale, hp = draw(gated_rows())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _extremes(draw, rng, luts)
    _extremes(draw, rng, visits)
    return luts, visits, hit, scale, hp, draw(st.sampled_from([0, 1]))


def _overflowing_visit_pair():
    """A flagged_diffusion case whose visit pair at 1e308 overflows in (a + b) * 0.5
    and writes inf to two visit entries in the middle of the row, while every other
    entry it writes, the LUT row and the last visit entry among them, is finite."""
    hp = R8.replace(r_a=2.0, r_b=0.5)
    luts, visits = np.linspace(-1.0, 1.0, 8)[None], np.full((1, 8), 0.5)
    visits[0, 3:5] = 1e308
    return luts, visits, np.array([0]), 1.0, hp, 0


@needs_kernel
@settings(max_examples=300, deadline=None)
@example(case=_overflowing_visit_pair())
@given(case=flagged_diffusion())
def test_a_diffusion_call_sets_check_due_exactly_when_it_writes_a_non_finite_value(case):
    # a call sets the flag or leaves it: a finite call leaves a cleared flag at 0
    luts, visits, hit, scale, hp, due = case
    bound = _bound(luts, visits, hit, hp)
    bound.check_due[0] = due
    assert _diffused(bound, hit.shape[0], scale)
    written = np.concatenate([luts[hit], visits[hit]])     # every entry of each hit row
    assert bound.check_due[0] == int(due or not np.isfinite(written).all())


def _diffusion_case():
    rng = np.random.default_rng(11)
    return (rng.standard_normal((5, 8)), rng.uniform(1e-3, 1.0, (5, 8)),
            np.array([0, 2, 3]), 0.25, R8.replace(r_a=2.0, r_b=0.5))


def _declines_diffusion(luts, visits, hit, scale, hp):
    """Asserts the kernel declines to diffuse these rows, writing nothing."""
    got_luts, got_visits = luts.copy(order="K"), visits.copy(order="K")
    assert not _diffused(_bound(got_luts, got_visits, hit, hp), hit.shape[0], scale)
    assert np.array_equal(_bits(got_luts), _bits(luts))
    assert np.array_equal(_bits(got_visits), _bits(visits))


@needs_kernel
@pytest.mark.parametrize("change", [
    pytest.param(lambda luts, visits, hit: (np.asfortranarray(luts), visits, hit),
                 id="strided-table"),
    pytest.param(lambda luts, visits, hit: (luts.astype(np.float32), visits, hit), id="float32"),
    pytest.param(lambda luts, visits, hit: (luts, np.vstack([visits, visits]), hit),
                 id="visits-unlike-table"),
    pytest.param(lambda luts, visits, hit: (luts, visits, hit[::-1].copy()), id="rows-descending"),
    pytest.param(lambda luts, visits, hit: (luts, visits, hit - 3), id="negative-rows"),
    pytest.param(lambda luts, visits, hit: (luts, visits, hit.astype(np.int32)), id="int32-rows"),
])
def test_kernel_declines_diffusion_it_does_not_take_and_numpy_diffuses(change):
    luts, visits, hit, scale, hp = _diffusion_case()
    luts, visits, hit = change(luts, visits, hit)
    want_luts, want_visits = luts.copy(order="K"), visits.copy(order="K")
    _diffuse_rows_numpy(want_luts, want_visits, hit, scale, hp)
    _declines_diffusion(luts, visits, hit, scale, hp)
    _diffuse_rows(_bound(luts, visits, hit, hp), hit.shape[0], scale, hp)
    assert np.array_equal(_bits(luts), _bits(want_luts))
    assert np.array_equal(_bits(visits), _bits(want_visits))


@needs_kernel
def test_kernel_declines_diffusion_of_a_row_outside_the_table():
    luts, visits, hit, scale, hp = _diffusion_case()
    hit = np.array([1, 5])
    _declines_diffusion(luts, visits, hit, scale, hp)
    with pytest.raises(IndexError):                 # numpy then raises as it always did
        _diffuse_rows(_bound(luts, visits, hit, hp), hit.shape[0], scale, hp)


# An iteration's backprop and update steps, as the kernel's bound call and numpy's
# (``_backprop_numpy``, then ``_updates_numpy``) read them from a ``core.Workspace``: a
# net's layer widths, parameters (P) and LUT rows (C, none for LW), the index maps, the
# forward values and the target, and the buffers both write.
def _space(case, hp):
    """A workspace of an update case, with the kernel's updates call bound to it.
    case maps the workspace's names (sizes and the index maps among them) to arrays,
    or to None for an LW net's tables, slopes and rates, and gate_u to the row of gate
    uniforms, the one row of the workspace's gate block; the buffers backprop and the
    updates write are made unless case has them, ``check_due`` cleared. As in
    ``core.Workspace``, a net with a later one-input layer that feeds more than one
    node takes numpy's deltas."""
    n_rows, n_params = case["read"].shape[0], case["params"].shape[0]
    n_nodes, n_out = int(case["sizes"][1:].sum()), int(case["sizes"][-1])
    ws = SimpleNamespace(**{"hit": np.zeros(n_rows, dtype=np.intp),
                            "check_due": np.zeros(1, dtype=np.intp),
                            "err": np.zeros(n_out), "delta": np.zeros(n_nodes),
                            "step": np.zeros(n_nodes), "grad": np.zeros(n_params + n_rows),
                            "arg": np.zeros(n_params + n_rows), **case,
                            "gate_u": case["gate_u"][None],
                            "numpy_backprop": _pairwise_sum(tuple(case["sizes"]))})
    ws.updates = KERNEL.bind_updates(ws, hp)
    return ws


def _numpy_backprop(ws):
    """numpy's backprop on ws, with the per-layer views ``_backprop_numpy`` reads cut
    from its flat arrays as ``core.Workspace`` cuts them."""
    ws.weights, ws.slopes, ws.acts, ws.deltas = [], [], [], []
    sizes = ws.sizes.tolist()
    p = c = s = d = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        ws.weights.append(ws.params[p:p + n_in * n_out].reshape(n_out, n_in))
        ws.slopes.append(None if ws.slope is None
                         else ws.slope[c:c + n_in * n_out].reshape(n_out, n_in))
        ws.acts.append(ws.inputs[s + n_in:s + n_in + n_out])
        ws.deltas.append(ws.delta[d:d + n_out])
        p, c, s, d = p + (n_in + 1) * n_out, c + n_in * n_out, s + n_in, d + n_out
    ws.acts[-1] = ws.y
    _backprop_numpy(ws)


def _numpy_iteration(ws, gate_u, scale, new_scale, hp):
    """numpy's backprop and updates on ws; returns n_hit."""
    _numpy_backprop(ws)
    return _updates_numpy(ws, gate_u, scale, new_scale, hp)


def _state(ws):
    """The network state an update writes: params, LUTs and visits, as fresh arrays."""
    return [np.array(getattr(ws, name)) for name in ("params", "luts", "visits")]


def _copied(case):
    """A fresh copy of each array of case; None stays None."""
    return {k: None if v is None else np.copy(v) for k, v in case.items()}


def _updated(case, scale, hp, numpy):
    """The workspace after the kernel's updates call, or numpy's, and n_hit. The
    kernel's call on a net that takes numpy's deltas runs after numpy's backprop."""
    ws = _space(_copied(case), hp)
    new_scale = scale * (1.0 - hp.r_c)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if numpy:
            return ws, _numpy_iteration(ws, case["gate_u"], scale, new_scale, hp)
        assert ws.updates is not None
        if ws.numpy_backprop:
            _numpy_backprop(ws)
    return ws, ws.updates(0, scale, new_scale)


def _same_bits(got, want):
    """Equal bits, except that a NaN matches any NaN. Where both operands are NaN,
    the result's sign follows the operand order, and numpy's SIMD loops keep one
    operand's NaN while their scalar tails keep the other's."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(_bits(got[~nan]), _bits(want[~nan])))


def _assert_same_updates(case, scale, hp, exact=True):
    """The kernel's backprop and updates and numpy's write the same bits; with
    exact=False a NaN matches any NaN (``_same_bits``), for cases whose NaN reads
    meet NaN steps."""
    (got, n_hit), (want, want_hit) = (_updated(case, scale, hp, numpy) for numpy in (0, 1))
    assert n_hit == want_hit
    assert np.array_equal(got.hit[:n_hit], want.hit[:n_hit])
    # untouched entries as well
    for name in ("err", "delta", "params", "luts", "visits"):
        got_a, want_a = getattr(got, name), getattr(want, name)
        if want_a is None:                      # an LW net's tables
            assert got_a is None, name
        elif exact:
            assert np.array_equal(_bits(got_a), _bits(want_a)), name
        else:
            assert _same_bits(got_a, want_a), name


def _rates(draw):
    return st.sampled_from([0.0, 1e-9, 0.001, 0.5, draw(st.floats(0.0, 0.99))])


def _scales():
    return st.one_of(st.sampled_from([1.0, VISIT_SCALE_MIN]),
                     st.floats(1.0, 4.0).map(lambda f: f * VISIT_SCALE_MIN),
                     st.floats(VISIT_SCALE_MIN, 1.0))


def _tables(rng, rows, n_src, hp, scale, nan_input):
    """luts, visits (stored at scale), lo and frac of an update case; with nan_input,
    source 0 is a NaN input, as segment_coords places it."""
    r_res = hp.r_res
    luts = rng.standard_normal((rows, r_res)) * 10.0 ** rng.integers(-3, 4)
    # visit values from 0 up, so that some settle below v_min, and some rows at v_min
    values = rng.uniform(0.0, 1.0, (rows, r_res)) ** rng.integers(1, 40)
    values[rng.random(rows) < 0.3] = hp.v_min
    lo, frac = rng.integers(0, r_res - 1, n_src), rng.random(n_src)
    frac[rng.random(n_src) < 0.2] = 0.0         # grid points: one entry takes it all
    frac[rng.random(n_src) < 0.2] = 1.0
    if nan_input:
        lo[0], frac[0] = r_res - 2, math.nan
    return dict(luts=luts, visits=values / scale, lo=lo, frac=frac)


def _layers(rng, sizes, hp, nlw):
    """The layer part of an update case: a net of these sizes' parameters, its index
    maps and rates (``core._update_maps``), and its forward values: every layer's
    inputs with a 1 per bias after them, the outputs y, the LUT rows' reads and
    slopes (none for LW, whose slopes are None), and the target."""
    param_dst, param_src, conn_dst, src, rates = core._update_maps(sizes, hp, nlw)
    n_src, n_rows, n_out = sum(sizes[:-1]), src.shape[0], sizes[-1]
    return dict(sizes=np.array(sizes, dtype=np.intp),
                params=rng.uniform(-0.5, 0.5, param_dst.shape[0]), rates=rates,
                param_dst=param_dst, param_src=param_src, conn_dst=conn_dst, src=src,
                inputs=np.append(rng.uniform(-1.0, 1.0, n_src), np.ones(len(sizes) - 1)),
                y=rng.uniform(-1.0, 1.0, n_out), target=rng.uniform(-1.0, 1.0, n_out),
                read=rng.standard_normal(n_rows),
                slope=rng.standard_normal(n_rows) if nlw else None)


def _pairwise_sum(sizes) -> bool:
    """Whether the updates call on a net of these sizes takes numpy's deltas: a layer
    after the first with one input and more than one output, whose column numpy sums
    pairwise."""
    return any(n_in == 1 < fed for n_in, fed in zip(sizes[1:-1], sizes[2:]))


def _sizes(widest):
    """Layer widths of a net of 1 to 3 layers, each 1 to widest wide."""
    return st.lists(st.integers(1, widest), min_size=2, max_size=4).map(tuple)


def _update_case(rng, sizes, hp, scale, nan_input=False, nlw=True):
    """An update case of an NLW or LW net of these sizes, with its gate uniforms. An
    LW net has no LUT rows: no tables, segments or gate uniforms."""
    layers = _layers(rng, sizes, hp, nlw)
    rows = layers["src"].shape[0]
    tables = (_tables(rng, rows, sum(sizes[:-1]), hp, scale, nan_input) if nlw else
              dict(luts=None, visits=None, lo=np.zeros(0, dtype=np.intp), frac=np.zeros(0)))
    return {**tables, **layers, "gate_u": rng.random(rows)}


@st.composite
def table_writes(draw):
    """(case, scale, hp) as one iteration's updates, drawn for its table writes."""
    hp = Hyperparameters(r_res=draw(st.integers(2, 256)), r_c=draw(_rates(draw)),
                         s_b=draw(_rates(draw)), zeta=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         v_min=draw(st.sampled_from([1e-16, 0.5, draw(st.floats(1e-300, 0.5))])))
    scale = draw(_scales())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _update_case(rng, draw(_sizes(4)), hp, scale, draw(st.booleans())), scale, hp


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(case=table_writes())
def test_kernel_matches_numpy_table_updates_bit_for_bit(case):
    _assert_same_updates(*case)


@st.composite
def gained_updates(draw):
    """(case, scale, hp) as one iteration's updates, drawn for the gain and the gate."""
    hp = Hyperparameters(
        r_res=draw(st.integers(2, 64)), r_c=draw(_rates(draw)), s_b=draw(_rates(draw)),
        s_a=draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.5, 5.0, 1e6,
                                  draw(st.floats(0.0, 100.0))])),
        mu=draw(st.sampled_from([0.0, 0.02, 1.0, draw(st.floats(0.0, 1e3))])),
        nu=draw(st.sampled_from([0.0, 1.0, 0.25, draw(st.floats(-2.0, 2.0))])),
        zeta=draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))])))
    scale = draw(_scales())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = _update_case(rng, draw(_sizes(4)), hp, scale, draw(st.booleans()),
                        nlw=draw(st.booleans()))
    special = [0.0, -0.0, 1e-310, -1e-310, math.inf, -math.inf, math.nan]
    for name in ("params", "read", "slope", "inputs", "y", "target"):
        values = case[name]
        if values is None:                      # an LW net's slopes
            continue
        values *= 10.0 ** rng.integers(-3, 7, values.shape)     # gain arguments past 50
        picks = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
        # non-finite reads, slopes and outputs, as in a diverged net, and non-finite steps
        values[picks] = rng.choice(special if name != "params" else special[:4], picks.sum())
    rows = case["read"].shape[0]
    gate_u = case["gate_u"]
    gate_u[rng.random(rows) < 0.3] = draw(st.sampled_from([0.0, hp.zeta]))   # ties
    return case, scale, hp


# LW's gain path: s_a > 0, so numpy's expm1 runs on the arguments between the C passes
LW_GAIN = Hyperparameters(r_res=8, s_a=5.0, s_b=1e-3)


@needs_kernel
@settings(max_examples=300, deadline=None)
@example(case=(_update_case(np.random.default_rng(17), (2, 3, 1), LW_GAIN, 1.0, nlw=False),
               1.0, LW_GAIN))
@example(case=(_update_case(np.random.default_rng(18), (2, 1, 4, 1), LW_GAIN, 1.0, nlw=False),
               1.0, LW_GAIN))
@given(case=gained_updates())
def test_kernel_matches_numpy_updates_bit_for_bit(case):
    _assert_same_updates(*case, exact=False)


@st.composite
def flagged_updates(draw):
    """A ``table_writes`` or ``gained_updates`` case with some EXTREMES in its params
    and tables, and the value of check_due before the call."""
    case, scale, hp = draw(st.one_of(table_writes(), gained_updates()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for name in ("params", "luts", "visits"):
        if case[name] is not None:              # an LW net's tables
            _extremes(draw, rng, case[name])
    return case, scale, hp, draw(st.sampled_from([0, 1]))


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(case=flagged_updates())
def test_an_updates_call_sets_check_due_exactly_when_it_writes_a_non_finite_value(case):
    # the call writes every param and, on each LUT row, the two entries of its
    # segment in both tables; it sets the flag or leaves it
    case, scale, hp, due = case
    ws = _space(case, hp)
    ws.check_due[0] = due
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if ws.numpy_backprop:
            _numpy_backprop(ws)
        assert ws.updates(0, scale, scale * (1.0 - hp.r_c)) >= 0
    written = [ws.params]
    if ws.luts is not None:
        rows, lo = np.arange(ws.src.shape[0]), ws.lo[ws.src]
        written += [table[rows, lo + e] for table in (ws.luts, ws.visits) for e in (0, 1)]
    assert ws.check_due[0] == int(due or not all(np.isfinite(w).all() for w in written))


def _decades(rng, shape, special):
    """Values of either sign over 600 decades, some of them the special values."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    picks = rng.random(shape) < 0.2
    values[picks] = rng.choice(special, picks.sum())
    return values


def _backprop_case(sizes, seed, nan_input=False, nlw=True):
    """(case, scale, hp) of a backprop case on an NLW or LW net of these sizes at
    r_res 8, its values over many decades (``_decades``)."""
    rng = np.random.default_rng(seed)
    case = _update_case(rng, sizes, R8, 1.0, nan_input, nlw)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf]
    for name in ("params", "slope", "inputs", "y", "target"):
        if case[name] is not None and rng.random() < 0.5:
            case[name] = _decades(rng, case[name].shape, special)
    return case, 1.0, R8


@needs_kernel
@settings(max_examples=300, deadline=None)
# numpy sums the 9 rows pairwise, and on these plain values the C's sequential sum
# would differ: the call must take numpy's deltas
@example(case=(_update_case(np.random.default_rng(0), (2, 1, 9), R8, 1.0), 1.0, R8))
@example(case=(_update_case(np.random.default_rng(0), (2, 1, 9), R8, 1.0, nlw=False), 1.0, R8))
@example(case=_backprop_case((3, 1, 1, 1), 1))  # one-input layers feeding one node: C's
@example(case=_backprop_case((3, 1, 1, 1), 4, nlw=False))
@example(case=_backprop_case((1, 12, 12, 12), 2))
@example(case=_backprop_case((5, 12, 12, 1), 5, nlw=False))
@given(case=st.builds(_backprop_case, _sizes(12), st.integers(0, 2**32 - 1), st.booleans(),
                      st.booleans()))
def test_kernel_matches_numpy_backprop_bit_for_bit(case):
    # err, the deltas and what the updates write from them, on NLW and LW nets of 1 to
    # 3 layers of 1 to 12 nodes; one with a layer after the first that has one input
    # and more than one output runs numpy's backprop, and the bound call the rest
    assert _space(case[0], case[2]).updates is not None
    _assert_same_updates(*case, exact=False)


def _table_case():
    """An update case of a 3-2-1 net at r 8 (8 rows over 5 sources) that the kernel
    takes, with the buffers it writes and the gate row its call reads."""
    case = _update_case(np.random.default_rng(15), (3, 2, 1), TABLE_HP, 1.0)
    case.update(lo=np.array([0, 3, 6, 2, 5]), frac=np.array([0.25, 0.0, 0.5, 1.0, 0.75]),
                gate_u=np.array([0.9, 0.1, 0.9, 0.2, 0.3, 0.6, 0.4, 0.8]),
                hit=np.zeros(8, dtype=np.intp), row=0)
    return case


TABLE_HP = R8.replace(r_c=0.05, s_b=1e-3, zeta=0.5)


def _changed(name, change, per_call=False):
    """A change of _table_case's entry name: a fresh case on each call. The bind
    declines a change of what it fixes; per_call marks a change of what the forward
    pass or the caller gives each call (lo, the gate row), which the bound call
    declines."""
    def case():
        args = _table_case()
        args[name] = change(args[name])
        return args
    case.per_call = per_call
    return case


def _read_only(table):
    table.flags.writeable = False
    return table


def _declined(case):
    """Asserts the kernel declines a case, at bind time or, for a per-call change,
    in the call (-1), writing nothing to the params or the tables, and returns the
    case as ``_updates_numpy`` reads it."""
    ws, untouched = _space(case(), TABLE_HP), _state(_space(case(), TABLE_HP))
    if case.per_call:
        assert ws.updates is not None and ws.updates(ws.row, 0.25, 0.25 * 0.95) == -1
    else:
        assert ws.updates is None
    for got, want in zip(_state(ws), untouched):
        assert np.array_equal(_bits(got), _bits(want))
    return ws


def _numpy_updates(ws):
    return _numpy_iteration(ws, ws.gate_u[ws.row], 0.25, 0.25 * 0.95, TABLE_HP)


@needs_kernel
@pytest.mark.parametrize("case", [
    pytest.param(_changed("luts", np.asfortranarray), id="strided-table"),
    pytest.param(_changed("visits", lambda v: v[:, ::-1]), id="strided-visits"),
    pytest.param(_changed("luts", lambda t: t.astype(np.float32)), id="float32-table"),
    pytest.param(_changed("frac", lambda f: f.astype(np.float32)), id="float32-frac"),
    pytest.param(_changed("src", lambda s: s.astype(np.int32)), id="int32-src"),
    pytest.param(_changed("lo", lambda lo: lo.astype(np.int32)), id="int32-lo"),
    pytest.param(_changed("hit", lambda h: h.astype(np.int32)), id="int32-rows"),
    pytest.param(_changed("lo", lambda lo: lo - 1, per_call=True), id="lo-negative"),
    pytest.param(_changed("src", lambda s: s - 1), id="src-negative"),
    pytest.param(_changed("param_dst", lambda d: d - 1), id="node-negative"),
    pytest.param(_changed("gate_u", lambda g: np.asfortranarray(g[:, None])[:, 0][::-1]),
                 id="strided-gates"),
])
def test_kernel_declines_table_writes_it_does_not_take_and_numpy_writes_them(case):
    want = _space(case(), TABLE_HP)
    want_hit = _numpy_updates(want)
    got = _declined(case)
    assert _numpy_updates(got) == want_hit > 0
    assert np.array_equal(got.hit[:want_hit], want.hit[:want_hit])
    for table, want_table in zip(_state(got), _state(want)):
        assert np.array_equal(_bits(table), _bits(want_table))


@needs_kernel
@pytest.mark.parametrize("case,error", [
    pytest.param(_changed("lo", lambda lo: lo + 1, per_call=True), IndexError,
                 id="lo-past-the-last-segment"),
    pytest.param(_changed("row", lambda row: row + 1, per_call=True), IndexError,
                 id="row-outside-the-table"),
    pytest.param(_changed("src", lambda s: s + 1), IndexError, id="src-outside-lo"),
    pytest.param(_changed("gate_u", lambda g: np.append(g, 0.0)), IndexError,
                 id="gates-unlike-rows"),
    pytest.param(_changed("hit", lambda h: h[:3]), ValueError, id="steps-unlike-rows"),
    pytest.param(_changed("luts", _read_only), ValueError, id="read-only-table"),
    pytest.param(_changed("visits", _read_only), ValueError, id="read-only-visits"),
    pytest.param(_changed("param_src", lambda s: s + 1), IndexError,
                 id="input-outside-the-inputs"),
    pytest.param(_changed("conn_dst", lambda d: d + 10), IndexError,
                 id="row-node-outside-the-nodes"),
    pytest.param(_changed("rates", lambda r: r[1:]), ValueError,
                 id="rates-unlike-params"),
    pytest.param(_changed("sizes", lambda s: s + [0, 1, 0]), ValueError,
                 id="widths-wider-than-the-params"),
])
def test_kernel_declines_table_writes_that_numpy_refuses(case, error):
    ws = _declined(case)
    with pytest.raises(error):                  # numpy then raises as it always did
        _numpy_updates(ws)


@pytest.mark.parametrize("name", ["sizes", "param_dst", "param_src", "conn_dst", "src"])
def test_a_workspace_keeps_its_widths_and_maps_read_only(name):
    # the updates bind checks their ranges once, so nothing may write them after it
    ws = init_network((3, 2, 1), "NLW", R8, np.random.default_rng(21))._workspace
    fixed = getattr(ws, name)
    with pytest.raises(ValueError, match="read-only"):
        fixed[0] = 0
    assert not fixed.flags.writeable


@needs_kernel
def test_gated_training_at_a_million_entries_per_table_gives_the_same_bits_on_both_paths(
        numpy_only):
    # r_res has no upper bound, so no kernel may size a stack array by it
    hp = NLW.replace(r_res=2 ** 20, zeta=1.0)
    rng = np.random.default_rng(12)
    args, vals = rng.uniform(-1.2, 1.2, (4, 2)), rng.uniform(-0.5, 0.5, (4, 1))
    start = init_network((2, 1), "NLW", hp, np.random.default_rng(13))
    nets = []
    for numpy_path in (False, True):
        numpy_only.force(numpy_path)
        net = start.clone()
        Trainer(net, args, vals, seed=14).run(3)
        numpy_only.check(net)
        assert (net._workspace.kern is KERNEL) != numpy_path
        nets.append(net)
    for name in ("params", "luts", "visits"):
        assert np.array_equal(_bits(getattr(nets[0], name)), _bits(getattr(nets[1], name)))
    assert nets[0].visit_scale == nets[1].visit_scale


def test_build_removes_the_other_cached_libraries(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    for name in ("_probe-0123456789abcdef.so", "_probe-fedcba9876543210.so",
                 "_probe-x.tmp", "other.so"):
        (tmp_path / name).write_bytes(b"")
    try:
        path = kernel._build()
    except (OSError, RuntimeError) as exc:      # no compiler: nothing is built or removed
        pytest.skip(f"the probe kernel cannot be built here: {exc}")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, "_probe-x.tmp", "other.so"])
    kernel._build()                             # found in place: the same cache is kept
    assert len(list(tmp_path.iterdir())) == 3


def test_the_kernel_source_compiles_without_warnings(tmp_path):
    # gcc then names a local or a parameter that an edit left unused
    if shutil.which(kernel.COMPILER) is None:
        pytest.skip(f"no {kernel.COMPILER} here")
    done = subprocess.run([kernel.COMPILER, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "probe.so"), str(kernel.SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _trained(sizes):
    rng = np.random.default_rng(3)
    args = rng.uniform(-1.2, 1.2, (30, sizes[0]))
    vals = np.tanh(args[:, :1] - args[:, 1:2])
    net = init_network(sizes, "NLW", NLW.replace(r_res=16, zeta=0.3), np.random.default_rng(4))
    rows = Trainer(net, args, vals, seed=5).run(200, log_every=50)
    return rows, net


def test_failed_build_falls_back_to_numpy_and_trains_the_same_bits(monkeypatch, tmp_path):
    sizes = (2, 4, 3, 1)
    rows, net = _trained(sizes)                 # the kernel, where it loads
    monkeypatch.setattr(kernel, "COMPILER", "no-such-cc")
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(kernel, "_loaded", None)
    again_rows, again = _trained(sizes)
    assert kernel.load() is None
    assert kernel.describe() == "numpy (OSError: compiler 'no-such-cc' not found)"
    assert list(tmp_path.iterdir()) == []       # no temporary file left behind
    assert again_rows == rows
    for name in ("params", "luts", "visits"):
        assert np.array_equal(_bits(getattr(again, name)), _bits(getattr(net, name)))


def test_compile_error_and_unwritable_cache_fall_back_with_the_reason(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(kernel, "SOURCE", bad)
    monkeypatch.setattr(kernel, "_loaded", None)
    if KERNEL is not None:                      # a compiler is there to fail
        assert kernel.load() is None
        assert kernel.describe().startswith(f"numpy (RuntimeError: {kernel.COMPILER} exited")
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "file" / "cache")
    monkeypatch.setattr(kernel, "_loaded", None)
    assert kernel.load() is None
    assert kernel.describe().startswith("numpy (NotADirectoryError: ")


@needs_kernel
def test_the_declared_functions_resolve_in_the_library():
    # cffi reads the declarations from _probe.c, where gcc checks them against the code
    names = set(dir(KERNEL._lib))
    assert names == {"probed_read", "layer_outputs", "update_args", "update_apply",
                     "diffusion_gaps", "diffuse_rows"}
    for name in names:
        assert callable(getattr(KERNEL._lib, name))
    for struct, written in kernel.WRITTEN.items():
        pointers = {name for name, field in KERNEL._ffi.typeof(f"struct {struct}").fields
                    if field.type.kind == "pointer"}
        assert written <= pointers, struct


def _held_alone(arrays):
    """Weak references to arrays, which the caller then drops: only a bound call
    may keep them. Asserts, after a collection, that each of them is still there."""
    refs = [weakref.ref(a) for a in arrays]
    arrays.clear()
    gc.collect()
    assert all(ref() is not None for ref in refs)
    return [ref() for ref in refs]


@needs_kernel
def test_bound_calls_keep_their_arrays_alive():
    # a struct field is a raw pointer, so each call must hold the arrays it reads and writes
    rng = np.random.default_rng(16)
    lut, x = rng.standard_normal((3, 4, 8)), rng.uniform(-1.2, 1.2, 4)
    w = rng.standard_normal((3, 4))
    want = _probed_read_numpy(lut, x, R8)
    want = (*want, w * x + want[2])
    arrays = [lut.copy(), w.copy(), x.copy(), np.empty(4, dtype=np.intp), np.empty(4),
              np.empty((3, 4)), np.empty((3, 4)), np.empty((3, 4))]
    read = KERNEL.bind_read(*arrays[:3], R8, *arrays[3:])
    got = _held_alone(arrays)[3:]
    read()
    for mine, ref in zip(got, want):
        assert np.array_equal(_bits(mine), _bits(ref))

    luts, visits, hit, scale, hp = _diffusion_case()
    arrays = [luts.copy(), visits.copy(), hit.copy(), np.zeros(1, dtype=np.intp)]
    diffuse = KERNEL.bind_diffusion(*arrays, hp)
    got = _held_alone(arrays)
    _diffuse_rows_numpy(luts, visits, hit, scale, hp)
    assert diffuse(hit.shape[0], scale) == 0
    assert np.array_equal(_bits(got[0]), _bits(luts))
    assert np.array_equal(_bits(got[1]), _bits(visits))

    case = _table_case()
    want, want_hit = _updated(case, 0.25, TABLE_HP, numpy=True)
    ws = _space(_copied(case), TABLE_HP)
    updates, arrays = ws.updates, [ws.params, ws.luts, ws.visits, ws.hit]
    del ws
    got = _held_alone(arrays)
    assert updates(0, 0.25, 0.25 * (1.0 - TABLE_HP.r_c)) == want_hit > 0
    assert np.array_equal(got[3][:want_hit], want.hit[:want_hit])
    for g, w in zip(got[:3], _state(want)):
        assert np.array_equal(_bits(g), _bits(w))


def _run(script):
    """What a fresh interpreter that runs script prints, split into words."""
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split()


def test_lw_batch_evaluation_and_the_scalar_forms_never_load_the_kernel():
    # an LW batch pass has no LUT layer, and the one-table scalar forms read through
    # the numpy reference; an LW net's workspace, which training and forward_network
    # bind, loads it (test_lw_training_runs_the_bound_updates_call)
    script = (
        "import sys, numpy as np\n"
        "from lutnet import forward_batch, init_network, default_hyperparameters\n"
        "from lutnet.core import LutConnection, interpolate\n"
        "from lutnet.train import approx_lut_derivative, update_lut_component\n"
        "rng = np.random.default_rng(0)\n"
        "net = init_network((2, 3, 1), 'LW', default_hyperparameters('LW'), rng)\n"
        "forward_batch(net, rng.uniform(-1, 1, (8, 2)))\n"
        "hp = default_hyperparameters('NLW')\n"
        "conn = LutConnection(0.5, np.linspace(-1, 1, hp.r_res), np.full(hp.r_res, hp.v_p))\n"
        "interpolate(conn.lut, 0.3, hp)\n"
        "approx_lut_derivative(conn, 0.3, hp)\n"
        "update_lut_component(conn, 0.2, 0.3, hp, gate=True)\n"
        "from lutnet import kernel\n"
        "print('cffi' in sys.modules, kernel._loaded)\n"
    )
    assert _run(script) == ["False", "None"]


@needs_kernel
@pytest.mark.parametrize("sizes,changes", [
    pytest.param((5, 32, 32, 1), {}, id="md2-lw"),
    pytest.param((2, 3, 1), {"s_a": 5.0}, id="gain"),
    pytest.param((2, 1, 9), {}, id="numpy-deltas"),
])
def test_lw_training_runs_the_bound_updates_call(monkeypatch, sizes, changes):
    # bound, and taken on every iteration: a call that declined (-1) each time would
    # leave numpy to run after it, with the same bits and no faster
    rng = np.random.default_rng(19)
    net = init_network(sizes, "LW", default_hyperparameters("LW").replace(**changes), rng)
    ws = net._workspace
    assert ws.kern is KERNEL and ws.updates is not None and ws.diffuse is None
    bound, hits = ws.updates, []
    ws.updates = lambda *args: hits.append(bound(*args)) or hits[-1]

    def refused(*args):
        raise AssertionError("numpy's updates ran")

    monkeypatch.setattr(train, "_updates_numpy", refused)
    args, vals = rng.uniform(-1.2, 1.2, (16, sizes[0])), rng.uniform(-0.5, 0.5, (16, sizes[-1]))
    Trainer(net, args, vals, seed=20).run(40)
    assert hits == [0] * 40                     # no LUT row, so no gated row


def test_nlw_batch_evaluation_loads_the_kernel():
    # the first LUT layer of a batch pass builds and loads it, where it can be loaded
    script = (
        "import numpy as np\n"
        "from lutnet import forward_batch, init_network, default_hyperparameters, kernel\n"
        "rng = np.random.default_rng(0)\n"
        "net = init_network((2, 3, 1), 'NLW', default_hyperparameters('NLW'), rng)\n"
        "print(kernel._loaded is None)\n"
        "forward_batch(net, rng.uniform(-1, 1, (8, 2)))\n"
        "print(kernel._loaded is None, kernel.load() is not None)\n"
    )
    assert _run(script) == ["True", "False", str(KERNEL is not None)]


def _dispatch_targets():
    """numpy's CPU-dispatch targets above its baseline that this machine runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                         # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if umath.__cpu_features__.get(t)]


# Runs in a fresh interpreter: argv is this file, then the targets switched off.
_LOWERED_CHECKS = """
import sys
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
on = [t for t in sys.argv[2:] if umath.__cpu_features__.get(t)]
if on:
    sys.exit(f"numpy still dispatches {on}")
from lutnet import kernel
line = kernel.describe_numpy()
if set(line.split("dispatch ")[1].split()) & set(sys.argv[2:]):
    sys.exit(f"{line!r} lists a target that is off")
sys.exit(pytest.main([sys.argv[1], "-q", "-p", "no:cacheprovider",
                      "-k", "bit_for_bit or transposed_rows"]))
"""


@needs_kernel
def test_kernel_matches_numpy_at_a_lower_cpu_dispatch_level():
    # numpy picks some loops (np.tanh's, np.expm1's) by CPU feature, so the kernel's
    # "same bits as numpy" is checked again with every dispatch target above numpy's
    # baseline switched off. numpy ignores a name it does not know, so the child
    # first shows that none of them is still on.
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no target above its baseline on this machine")
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1]),
           "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    done = subprocess.run([sys.executable, "-c", _LOWERED_CHECKS, __file__, *targets],
                          capture_output=True, text=True, env=env, cwd=root)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^7 passed", done.stdout, re.MULTILINE), done.stdout
