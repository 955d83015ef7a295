"""The compiled kernels: ``_probe.c``, built with gcc and loaded with cffi.

Four operations run this kernel when it loads and their numpy body
otherwise, and both bodies give the same bits: the single-sample read of a
LUT layer with its slope estimates (``core.Workspace``, so
``forward_network`` and every training iteration), ``core._layer_outputs``,
a LUT layer of a batch pass (``forward_batch``, so ``mse``, ``accuracy`` and
``render_surface``), the backprop and update steps of a training iteration
(``train._backprop_numpy``: the output error and the deltas, computed
inside the call; ``train._updates_numpy``: the linear updates, the LUT
steps, the gate draw and the table writes), two C passes around numpy's
``np.expm1`` of the gain arguments, and ``regularize._diffuse_rows``, the
gated diffusion of a training iteration, which leaves its ``tanh`` to numpy
between two C passes. On the kernel path a training iteration leaves only
the forward sum, ``tanh`` and ``expm1`` to numpy.

The single-sample operations run through a network's workspace: the
``bind_*`` methods check a set of arrays once (dtype, shape, contiguity,
writability) and return a call with their pointers bound, which then runs
with no further check on the Python side. The C functions keep their own
index checks. The first of them to run in a process builds the library,
unless it is cached, and loads it, so LW training and LW batch evaluation
never import cffi. The library is cached in the package's ``__pycache__``
under a name hashed from the source, the compiler and its flags. Any
failure (no cffi, no compiler, a compile error, a directory that cannot be
written) selects numpy for the rest of the process and keeps the reason,
which ``describe`` reports.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .hyper import MAX_PROBE_OFFSETS

SOURCE = Path(__file__).with_name("_probe.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "gcc"
# no -ffast-math and no -march: a fused multiply-add or a reordered sum changes the bits
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_CDEF = """
int probed_read(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *x, ptrdiff_t n_in,
                const double *offsets, ptrdiff_t k, double i_min, double i_max, double span,
                ptrdiff_t *lo0, double *frac0, double *read0, double *slope);
int layer_outputs(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *w,
                  const double *act, ptrdiff_t n_rows, ptrdiff_t n_in,
                  double i_min, double i_max, double span, double *out);
int update_args(const double *params, ptrdiff_t n_params, const ptrdiff_t *param_dst,
                const ptrdiff_t *param_src, const double *read, const double *slope,
                ptrdiff_t n_rows, const ptrdiff_t *conn_dst, const ptrdiff_t *sizes,
                ptrdiff_t n_layers, const double *y, const double *target, double *err,
                double *delta, ptrdiff_t n_nodes, const double *inputs, ptrdiff_t n_inputs,
                double mu, double s_a, double *step, double *grad, double *arg);
ptrdiff_t update_apply(double *params, ptrdiff_t n_params, const double *rates,
                       double *luts, double *visits, ptrdiff_t n_rows, ptrdiff_t r,
                       const ptrdiff_t *src, const ptrdiff_t *lo, const double *frac,
                       ptrdiff_t n_src, const double *read, const double *grad,
                       const double *arg, double *dwr, ptrdiff_t *hit, double s_a, double s_b,
                       double zeta, double r_c, double v_min, const double *gates,
                       ptrdiff_t n_gates, ptrdiff_t row, double scale, double new_scale);
int diffusion_gaps(const double *luts, ptrdiff_t n_rows, ptrdiff_t r, const ptrdiff_t *hit,
                   double r_a, ptrdiff_t n_hit, double *gap);
int diffuse_rows(double *luts, double *visits, ptrdiff_t n_rows, ptrdiff_t r,
                 const ptrdiff_t *hit, double r_a, double r_b, double v_min,
                 ptrdiff_t n_hit, const double *tanh_gap, double scale);
"""

_loaded = None          # after the first load(): the Kernel, or why there is none


def _is(dtype, *arrays) -> bool:
    return all(isinstance(a, np.ndarray) and a.dtype == dtype for a in arrays)


def _lengths(n, *arrays) -> bool:
    """Whether every one of arrays has the shape (n,)."""
    return all(a.shape == (n,) for a in arrays)


class Kernel:
    """The loaded library. Each ``bind_*`` method checks its arrays once and returns
    a call on their bound pointers that gives the C function's status, 0 when it
    ran; or None, leaving the work to numpy, when the arrays are not what the C
    function reads (float64 or intp, C-contiguous, of matching shapes, the written
    ones writable). A bound call keeps its arrays alive."""

    def __init__(self, path: Path):
        import cffi

        self.path = path
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        self._lib = ffi.dlopen(str(path))
        self._buffer = ffi.from_buffer
        self._doubles = ffi.typeof("double[]")
        self._indices = ffi.typeof("ptrdiff_t[]")
        self._null = ffi.NULL

    def _pointers(self, *arrays, written=0):
        """cffi pointers to arrays, the first ``written`` of them writable; None
        when one is not C-contiguous or not writable."""
        buf, doubles, indices = self._buffer, self._doubles, self._indices
        try:
            return [buf(indices if a.dtype == np.intp else doubles, a,
                        require_writable=i < written) for i, a in enumerate(arrays)]
        except (ValueError, TypeError, BufferError):
            return None

    def bind_read(self, lut, x, hp, lo, frac, read, slope):
        """``() -> status``: the LUT layer lut read at x into lo, frac, read and slope.

        lut is a (n_out, n_in, r) table and x its n_in inputs; the call writes
        ``core._probed_read_numpy``'s four results in place: lo and frac (n_in)
        and read and slope (n_out, n_in). None for a 1x1 read (n_out = n_in = 1),
        whose quotients numpy sums pairwise.
        """
        offsets = hp.probe_offsets
        k = offsets.shape[0]
        if not (_is(np.float64, lut, x, frac, read, slope, offsets) and _is(np.intp, lo)
                and lut.ndim == 3 and lut.shape[1:2] == x.shape == lo.shape == frac.shape
                and read.shape == slope.shape == lut.shape[:2] and lut.shape[:2] != (1, 1)
                and k <= MAX_PROBE_OFFSETS):
            return None
        ptrs = self._pointers(lo, frac, read, slope, lut, x, offsets, written=4)
        if ptrs is None:
            return None
        n_out, n_in, r = lut.shape
        return partial(self._lib.probed_read, ptrs[4], n_out, r, ptrs[5], n_in, ptrs[6], k,
                       hp.i_min, hp.i_max, hp.span, *ptrs[:4])

    def bind_updates(self, ws, hp):
        """``(row, scale, new_scale) -> n_hit``: ``train._backprop_numpy`` and
        ``train._updates_numpy`` on ws, in place, with the gate uniforms of row
        ``row`` of the (n_gates, rows) block ``ws.gate_u``; -1 when the C
        functions decline.

        ws is a ``core.Workspace`` of an NLW network, or anything with its
        attributes. update_args writes the output error ``err`` (y - target),
        the deltas, the steps and the gain arguments, numpy's expm1 runs on the
        arguments in place (not at s_a = 0), and update_apply writes the
        parameters, dwr, hit and the tables, visits stored at visit scale
        ``scale`` and written at ``new_scale``. None for a net with a layer after
        the first that has one input and more than one output, whose backward
        sum numpy takes pairwise. The C functions check the layer sizes against
        the buffers and every index they read (a map index outside the nodes or
        inputs, a src outside lo, an lo outside [0, r - 2], a row outside the
        gates) before they write.
        """
        luts, gate_u, sizes = ws.luts, ws.gate_u, ws.sizes
        if not (_is(np.float64, ws.params, ws.rates, luts, ws.visits, ws.read, ws.slope, ws.frac,
                    ws.dwr, ws.grad, ws.arg, ws.inputs, ws.y, ws.target, ws.err, ws.delta,
                    ws.step, gate_u)
                and _is(np.intp, sizes, ws.param_dst, ws.param_src, ws.conn_dst, ws.src, ws.lo,
                        ws.hit)
                and luts.ndim == 2 and luts.shape == ws.visits.shape and ws.params.ndim == 1
                and sizes.ndim == 1 and sizes.size >= 2):
            return None
        n_params, n_rows, n_out = ws.params.shape[0], luts.shape[0], sizes[-1]
        if not (_lengths(n_params, ws.rates, ws.param_dst, ws.param_src)
                and gate_u.ndim == 2 and gate_u.shape[1] == n_rows
                and _lengths(n_rows, ws.read, ws.slope, ws.dwr, ws.hit, ws.conn_dst, ws.src)
                and _lengths(n_params + n_rows, ws.grad, ws.arg)
                and _lengths(ws.frac.size, ws.lo, ws.frac)
                and _lengths(n_out, ws.y, ws.target, ws.err)
                and _lengths(ws.delta.size, ws.delta, ws.step) and ws.inputs.ndim == 1
                and not any(n_in == 1 < fed for n_in, fed in zip(sizes[1:-1], sizes[2:]))):
            return None
        ptrs = self._pointers(ws.params, luts, ws.visits, ws.dwr, ws.hit, ws.step, ws.grad,
                              ws.arg, ws.err, ws.delta, ws.rates, ws.src, ws.lo, ws.frac,
                              ws.read, ws.slope, ws.param_dst, ws.param_src, ws.conn_dst, sizes,
                              ws.y, ws.target, ws.inputs, gate_u, written=10)
        if ptrs is None:
            return None
        (params, luts_p, visits, dwr, hit, step, grad, arg, err, delta, rates, src, lo, frac,
         read, slope, param_dst, param_src, conn_dst, sizes_p, y, target, inputs, gates) = ptrs
        args = partial(self._lib.update_args, params, n_params, param_dst, param_src, read, slope,
                       n_rows, conn_dst, sizes_p, sizes.size - 1, y, target, err, delta,
                       ws.delta.size, inputs, ws.inputs.size, hp.mu, hp.s_a, step, grad, arg)
        apply = partial(self._lib.update_apply, params, n_params, rates, luts_p, visits, n_rows,
                        luts.shape[1], src, lo, frac, ws.lo.size, read, grad, arg, dwr, hit,
                        hp.s_a, hp.s_b, hp.zeta, hp.r_c, hp.v_min, gates, gate_u.shape[0])
        gain_on, gain_args, expm1 = hp.s_a != 0.0, ws.arg, np.expm1

        def updates(row, scale, new_scale):
            if args():
                return -1
            if gain_on:                         # at s_a = 0 the raw steps: no gain, no expm1
                expm1(gain_args, out=gain_args)     # numpy's expm1 of the arguments, in place
            return apply(row, scale, new_scale)

        return updates

    def bind_diffusion(self, luts, visits, hit, hp):
        """``(n_hit, scale) -> status``: ``regularize._diffuse_rows_numpy`` in place,
        on the rows hit[:n_hit] of the (rows, r) tables luts and visits.

        numpy's tanh runs on the scaled gaps between the two C passes.
        """
        if not (_is(np.float64, luts, visits) and _is(np.intp, hit)
                and luts.ndim == 2 and luts.shape == visits.shape and hit.ndim == 1):
            return None
        ptrs = self._pointers(luts, visits, hit, written=2)
        if ptrs is None:
            return None
        n_rows, r = luts.shape
        rows = partial(self._lib.diffuse_rows, *ptrs[:2], n_rows, r, ptrs[2], hp.r_a, hp.r_b,
                       hp.v_min)
        gaps_of = partial(self._lib.diffusion_gaps, ptrs[0], n_rows, r, ptrs[2], hp.r_a)
        smooth, null, buf, doubles = hp.r_a != 0.0, self._null, self._buffer, self._doubles

        def diffuse(n_hit, scale):
            if not smooth:                      # at r_a = 0 the LUT rows take no tanh
                return rows(n_hit, null, scale)
            gaps = np.empty((n_hit, r - 1))
            gap = buf(doubles, gaps)
            if gaps_of(n_hit, gap):
                return -1
            np.tanh(gaps, out=gaps)             # numpy's tanh of the scaled gaps, in place
            return rows(n_hit, gap, scale)

        return diffuse

    def layer_outputs(self, lut, w, act, hp):
        """``core._layer_outputs`` on these arguments: a fresh (n_out, rows, n_in) array.

        Returns None, and leaves the layer to numpy, unless lut is a C-contiguous
        float64 (n_out, n_in, r) table, w a C-contiguous float64 (n_out, n_in)
        matrix and act float64 (rows, n_in) rows with n_in at most 4096.
        """
        act = np.ascontiguousarray(act)     # a later layer's rows are the transposed tanh
        if not (lut.ndim == 3 and act.ndim == 2 and lut.shape[:2] == w.shape
                and w.shape[1] == act.shape[1]
                and lut.dtype == w.dtype == act.dtype == np.float64):
            return None
        n_out, n_in, r = lut.shape
        buf, doubles = self._buffer, self._doubles
        try:
            inputs = buf(doubles, lut), buf(doubles, w), buf(doubles, act)
        except ValueError:                      # an array that is not C-contiguous
            return None
        out = np.empty((n_out, act.shape[0], n_in))
        if self._lib.layer_outputs(inputs[0], n_out, r, *inputs[1:], act.shape[0], n_in,
                                   hp.i_min, hp.i_max, hp.span, buf(doubles, out)):
            return None
        return out


def load() -> Kernel | None:
    """The kernel, built and loaded on the first call in a process; None selects numpy."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = Kernel(_build())
        except Exception as exc:        # any failure leaves numpy to do the work
            _loaded = f"{type(exc).__name__}: {exc}"
    return _loaded if isinstance(_loaded, Kernel) else None


def describe() -> str:
    """The active kernels: the library's path, or numpy and why."""
    kern = load()
    return f"kernel {kern.path}" if kern is not None else f"numpy ({_loaded})"


def describe_numpy() -> str:
    """numpy's version and its dispatch targets above baseline that are on: bits follow them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                         # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy: {np.__version__}, dispatch {' '.join(on) or 'baseline'}"


def _build() -> Path:
    """Compile the library into the cache, unless it is there; return its path.

    The file name hashes the source, the compiler and its flags, so a change
    to any of them builds a new library. Once it is in place, the cache's
    other ``_probe-*.so`` files are removed; ``.tmp`` files are left to the
    builds that may be writing them.
    """
    import subprocess               # here, so that only a process that builds the kernel loads it

    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join((COMPILER, *FLAGS)).encode())
    path = CACHE_DIR / f"_probe-{tag.hexdigest()[:16]}.so"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_probe-", suffix=".tmp", dir=path.parent)
        os.close(fd)
        try:
            try:
                done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(SOURCE)],
                                      capture_output=True, text=True)
            except FileNotFoundError:
                raise OSError(f"compiler {COMPILER!r} not found") from None
            if done.returncode:
                lines = done.stderr.splitlines() or [""]
                first = next((ln for ln in lines if "error" in ln), lines[0])
                raise RuntimeError(f"{COMPILER} exited {done.returncode}: {first.strip()}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    for old in path.parent.glob("_probe-*.so"):
        if old != path:
            with contextlib.suppress(OSError):      # gone already, or not ours to remove
                old.unlink()
    return path
