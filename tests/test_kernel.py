"""The compiled probe read: bit-identity with numpy, the fallback, lazy loading."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutnet import core, kernel
from lutnet.core import (
    _probed_read,
    _probed_read_numpy,
    init_network,
    lut_grid,
)
from lutnet.hyper import MAX_PROBE_OFFSETS, Hyperparameters, default_hyperparameters
from lutnet.train import Trainer

KERNEL = kernel.load()
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason=f"the probe kernel cannot be built here: {kernel.describe()}")

NLW = default_hyperparameters("NLW")


def _bits(a):
    """An int64 view of a float array, so that -0.0 and NaN payloads compare too."""
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def probe_reads(draw):
    """(lut, cols, x, hp) as a LUT layer after the first."""
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
    lut = rng.standard_normal((n_out, n_in, r_res)) * 10.0 ** rng.integers(-3, 4)
    return lut, np.arange(n_in), x, hp


@needs_kernel
@settings(max_examples=300, deadline=None)
@example(case=(np.linspace(-1.0, 1.0, 64)[None, None] ** 3, np.arange(1), np.array([0.3]),
               NLW))
@given(case=probe_reads())
def test_kernel_matches_numpy_probe_read_bit_for_bit(case):
    lut, cols, x, hp = case
    got = KERNEL(lut, cols, x, hp)
    if lut.shape[0] == x.shape[0] == 1:         # numpy sums a 1x1 read pairwise: left to it
        assert got is None
        return
    with np.errstate(invalid="ignore"):
        want = _probed_read_numpy(lut, cols, x, hp)
    assert got is not None
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))


@needs_kernel
def test_probed_read_runs_the_kernel_when_it_loads(monkeypatch):
    def numpy_read(*_):
        raise AssertionError("the numpy probe read ran")

    monkeypatch.setattr(core, "_probed_read_numpy", numpy_read)
    lut = np.zeros((2, 3, 8))
    lo, frac, read, slope = _probed_read(lut, np.arange(3), np.zeros(3), NLW)
    assert read.shape == slope.shape == (2, 3)


@needs_kernel
@pytest.mark.parametrize("change", [
    pytest.param(lambda lut, cols, x: (lut[:, ::2], cols[:2], x[:2]), id="strided-table"),
    pytest.param(lambda lut, cols, x: (lut.astype(np.float32), cols, x), id="float32"),
    pytest.param(lambda lut, cols, x: (lut, cols + 3, x), id="column-outside"),
    pytest.param(lambda lut, cols, x: (lut, cols[:2], x), id="cols-unlike-x"),
])
def test_kernel_declines_what_it_does_not_take(change):
    # numpy then reads them, or raises as it always did
    args = change(np.ones((2, 3, 8)), np.arange(3), np.zeros(3))
    assert KERNEL(*args, NLW) is None


# The perfbench nets (NLW 2-8-1 r64, NLW 2-32-32-1 r256, LW 5-32-32-1) read every
# probe in C: one read per LUT layer after the first and iteration. 2-1-1's later
# layer is a 1x1 read, which goes to numpy every time.
@needs_kernel
@pytest.mark.parametrize("sizes,kind,r_res,reads,declined", [
    pytest.param((2, 8, 1), "NLW", 64, 1, 0, id="spirals-small"),
    pytest.param((2, 32, 32, 1), "NLW", 256, 2, 0, id="spirals-wide-r256"),
    pytest.param((5, 32, 32, 1), "LW", 64, 0, 0, id="md2-lw"),
    pytest.param((2, 1, 1), "NLW", 64, 1, 1, id="one-by-one"),
])
def test_training_probe_reads_run_in_c_unless_they_are_1x1(monkeypatch, sizes, kind, r_res,
                                                           reads, declined):
    results, numpy_reads = [], []
    call, numpy_read = kernel.Kernel.__call__, core._probed_read_numpy
    monkeypatch.setattr(kernel.Kernel, "__call__",
                        lambda *args: results.append(call(*args)) or results[-1])
    monkeypatch.setattr(core, "_probed_read_numpy",
                        lambda *args: numpy_reads.append(1) or numpy_read(*args))
    rng = np.random.default_rng(6)
    net = init_network(sizes, kind, default_hyperparameters(kind).replace(r_res=r_res), rng)
    Trainer(net, rng.uniform(-1, 1, (16, sizes[0])), rng.uniform(-1, 1, (16, 1)), 7).run(50)
    assert len(results) == 50 * reads
    assert sum(out is None for out in results) == len(numpy_reads) == 50 * declined


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


def test_lw_training_and_batch_evaluation_never_load_the_kernel():
    # nor does approx_lut_derivative, whose single table is a 1x1 read
    script = (
        "import sys, numpy as np\n"
        "from lutnet import Trainer, forward_batch, init_network, default_hyperparameters\n"
        "rng = np.random.default_rng(0)\n"
        "net = init_network((2, 3, 1), 'LW', default_hyperparameters('LW'), rng)\n"
        "Trainer(net, rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 1)), 1).run(20)\n"
        "hp = default_hyperparameters('NLW')\n"
        "forward_batch(init_network((2, 3, 1), 'NLW', hp, rng), rng.uniform(-1, 1, (8, 2)))\n"
        "from lutnet.core import LutConnection\n"
        "from lutnet.train import approx_lut_derivative\n"
        "conn = LutConnection(0.5, np.linspace(-1, 1, hp.r_res), np.full(hp.r_res, hp.v_p))\n"
        "approx_lut_derivative(conn, 0.3, hp)\n"
        "from lutnet import kernel\n"
        "print('cffi' in sys.modules, kernel._loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["False", "None"]
