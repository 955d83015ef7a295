"""The compiled kernels: ``_probe.c``, built with gcc and loaded with cffi.

Four functions run this kernel when it loads and their numpy body
otherwise, and both bodies give the same bits: ``core._probed_read``, a LUT
layer of one sample with its slope estimates (``forward_network``, so
every training iteration), ``core._layer_outputs``, a LUT layer of a batch
pass (``forward_batch``, so ``mse``, ``accuracy`` and ``render_surface``),
``train._update_tables``, the LUT entry steps, visit updates and gated decay
of a training iteration in one sweep, whose gain (``np.expm1``) and gate draw
(``np.flatnonzero``) numpy computes first, and ``regularize._diffuse_rows``,
the gated diffusion of a training iteration, which leaves its ``tanh`` to
numpy between two C passes. The first of them to run in a process builds
the library, unless it is cached, and loads it, so LW training and LW batch
evaluation never import cffi. The library is cached in the package's
``__pycache__`` under a name hashed from the source, the compiler and its
flags. Any failure (no cffi, no compiler, a compile error, a directory that
cannot be written) selects numpy for the rest of the process and keeps the
reason, which ``describe`` reports.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
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
                ptrdiff_t *lo0, double *out);
int layer_outputs(const double *lut, ptrdiff_t n_out, ptrdiff_t r, const double *w,
                  const double *act, ptrdiff_t n_rows, ptrdiff_t n_in,
                  double i_min, double i_max, double span, double *out);
int update_tables(double *luts, double *visits, ptrdiff_t n_rows, ptrdiff_t r,
                  const ptrdiff_t *src, const ptrdiff_t *lo, const double *frac, ptrdiff_t n_src,
                  const double *dwr, const ptrdiff_t *hit, ptrdiff_t n_hit,
                  double r_c, double v_min, double s_b, double scale, double new_scale);
int diffusion_gaps(const double *luts, ptrdiff_t n_rows, ptrdiff_t r, const ptrdiff_t *hit,
                   ptrdiff_t n_hit, double r_a, double *gap);
int diffuse_rows(double *luts, double *visits, ptrdiff_t n_rows, ptrdiff_t r,
                 const ptrdiff_t *hit, ptrdiff_t n_hit, const double *tanh_gap,
                 double r_a, double r_b, double v_min, double scale);
"""

_loaded = None          # after the first load(): the Kernel, or why there is none


class Kernel:
    """The loaded library: one method per compiled function of ``core``, ``train`` or
    ``regularize``."""

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

    def probed_read(self, lut, x, hp):
        """lo, frac, read and slope as ``core._probed_read`` returns them, in fresh arrays.

        Returns None, and leaves the read to numpy, unless lut is a C-contiguous
        float64 (n_out, n_in, r) table, x a contiguous float64 vector of its n_in
        inputs, and the read not 1x1 (n_out = n_in = 1, whose quotients numpy
        sums pairwise).
        """
        offsets = hp.probe_offsets
        k = offsets.shape[0]
        if not (lut.ndim == 3 and x.ndim == 1 and lut.shape[1] == x.shape[0]
                and k <= MAX_PROBE_OFFSETS
                and lut.dtype == x.dtype == offsets.dtype == np.float64):
            return None
        n_out, n_in, r = lut.shape
        buf, doubles = self._buffer, self._doubles
        try:
            inputs = buf(doubles, lut), buf(doubles, x), buf(doubles, offsets)
        except ValueError:                      # an array that is not C-contiguous
            return None
        lo = np.empty(n_in, dtype=np.intp)
        out = np.empty((2 * n_out + 1, n_in))  # frac, then read, then slope
        if self._lib.probed_read(inputs[0], n_out, r, inputs[1], n_in, inputs[2], k,
                                 hp.i_min, hp.i_max, hp.span,
                                 buf(self._indices, lo), buf(doubles, out)):
            return None
        return lo, out[0], out[1:n_out + 1], out[n_out + 1:]

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

    def update_tables(self, luts, visits, src, lo, frac, dwr, hit, scale, new_scale, hp):
        """``train._update_tables_numpy`` on these arguments, in place; True when it ran.

        Returns False, and leaves the tables to numpy, unless luts and visits are
        writable C-contiguous float64 tables of one (rows, r) shape, src, lo and
        hit contiguous intp vectors, frac a contiguous float64 vector of lo's length
        and dwr one of src's, with one entry per row. The kernel also declines, having
        written nothing, a src outside lo, an lo outside [0, r - 2] and hit rows
        that are not strictly increasing inside the table.
        """
        if not (luts.ndim == 2 and luts.shape == visits.shape and lo.ndim == 1
                and src.shape == dwr.shape == luts.shape[:1] and frac.shape == lo.shape
                and hit.ndim == 1
                and luts.dtype == visits.dtype == frac.dtype == dwr.dtype == np.float64
                and src.dtype == lo.dtype == hit.dtype == np.intp
                and luts.flags.writeable and visits.flags.writeable):
            return False
        buf, doubles, indices = self._buffer, self._doubles, self._indices
        try:
            tables = buf(doubles, luts), buf(doubles, visits)
            rows = buf(indices, src), buf(indices, lo), buf(doubles, frac)
            steps = buf(doubles, dwr), buf(indices, hit)
        except ValueError:                      # an array that is not C-contiguous
            return False
        return not self._lib.update_tables(*tables, *luts.shape, *rows, lo.shape[0], *steps,
                                           hit.shape[0], hp.r_c, hp.v_min, hp.s_b, scale,
                                           new_scale)

    def diffuse_rows(self, luts, visits, hit, scale, hp):
        """``regularize._diffuse_rows`` on these arguments, in place; True when it ran.

        Returns False, and leaves the rows to numpy, unless luts and visits are
        writable C-contiguous float64 tables of one (rows, r) shape and hit a
        contiguous intp vector of rows, strictly increasing, inside the table.
        """
        if not (luts.ndim == 2 and luts.shape == visits.shape and hit.ndim == 1
                and luts.dtype == visits.dtype == np.float64 and hit.dtype == np.intp
                and luts.flags.writeable and visits.flags.writeable):
            return False
        n_rows, r = luts.shape
        n_hit = hit.shape[0]
        buf, doubles, lib = self._buffer, self._doubles, self._lib
        try:
            tables, rows = (buf(doubles, luts), buf(doubles, visits)), buf(self._indices, hit)
        except ValueError:                      # an array that is not C-contiguous
            return False
        gap = self._null
        if hp.r_a != 0.0:                       # numpy's tanh of the scaled gaps, in place
            gaps = np.empty((n_hit, r - 1))
            gap = buf(doubles, gaps)
            if lib.diffusion_gaps(tables[0], n_rows, r, rows, n_hit, hp.r_a, gap):
                return False
            np.tanh(gaps, out=gaps)
        return not lib.diffuse_rows(*tables, n_rows, r, rows, n_hit, gap,
                                    hp.r_a, hp.r_b, hp.v_min, scale)


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
