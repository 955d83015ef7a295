"""The compiled LUT reads: ``_probe.c``, built with gcc and loaded with cffi.

Two ``core`` functions run this kernel when it loads and their numpy body
otherwise, and both bodies give the same bits: ``_probed_read``, the
training probe read, and ``_layer_outputs``, a LUT layer of a batch pass
(``forward_batch``, so ``mse``, ``accuracy`` and ``render_surface``). The
first of them to run in a process builds the library, unless it is
cached, and loads it, so LW training and LW batch evaluation never import
cffi. The library is cached in the package's ``__pycache__`` under a name
hashed from the source, the compiler and its flags. Any failure (no cffi,
no compiler, a compile error, a directory that cannot be written) selects
numpy for the rest of the process and keeps the reason, which
``describe`` reports.
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
int probed_read(const double *lut, ptrdiff_t n_out, ptrdiff_t n_cols, ptrdiff_t r,
                const ptrdiff_t *cols, const double *x, ptrdiff_t n_in,
                const double *offsets, ptrdiff_t k, double i_min, double i_max, double span,
                ptrdiff_t *lo0, double *out);
int layer_outputs(const double *lut, ptrdiff_t n_out, ptrdiff_t n_cols, ptrdiff_t r,
                  const ptrdiff_t *cols, const double *w, const double *act,
                  ptrdiff_t n_rows, ptrdiff_t n_in, double i_min, double i_max, double span,
                  double *out);
"""

_loaded = None          # after the first load(): the Kernel, or why there is none


class Kernel:
    """The loaded library: one method per compiled ``core`` function."""

    def __init__(self, path: Path):
        import cffi

        self.path = path
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        self._lib = ffi.dlopen(str(path))
        self._buffer = ffi.from_buffer
        self._doubles = ffi.typeof("double[]")
        self._indices = ffi.typeof("ptrdiff_t[]")

    def probed_read(self, lut, cols, x, hp):
        """lo, frac, read and slope as ``core._probed_read`` returns them, in fresh arrays.

        Returns None, and leaves the read to numpy, unless lut is a C-contiguous
        float64 (n_out, n_cols, r) table, x a contiguous float64 vector, cols an
        intp index array shaped like x, every index inside the table, and the
        read not 1x1 (n_out = n_in = 1, whose quotients numpy sums pairwise).
        """
        offsets = hp.probe_offsets
        k = offsets.shape[0]
        if not (lut.ndim == 3 and x.ndim == 1 and cols.shape == x.shape
                and k <= MAX_PROBE_OFFSETS and cols.dtype == np.intp
                and lut.dtype == x.dtype == offsets.dtype == np.float64):
            return None
        n_out, n_cols, r = lut.shape
        n_in = x.shape[0]
        buf, doubles, indices = self._buffer, self._doubles, self._indices
        try:
            inputs = buf(doubles, lut), buf(indices, cols), buf(doubles, x), buf(doubles, offsets)
        except ValueError:                      # an array that is not C-contiguous
            return None
        lo = np.empty(n_in, dtype=np.intp)
        out = np.empty((2 * n_out + 1, n_in))  # frac, then read, then slope
        if self._lib.probed_read(inputs[0], n_out, n_cols, r, inputs[1], inputs[2], n_in,
                                 inputs[3], k, hp.i_min, hp.i_max, hp.span,
                                 buf(indices, lo), buf(doubles, out)):
            return None
        return lo, out[0], out[1:n_out + 1], out[n_out + 1:]

    def layer_outputs(self, lut, cols, w, act, hp):
        """``core._layer_outputs`` on these arguments: a fresh (n_out, rows, n_in) array.

        Returns None, and leaves the layer to numpy, unless lut is a C-contiguous
        float64 (n_out, n_cols, r) table, w a C-contiguous float64 (n_out, n_in)
        matrix, act float64 (rows, n_in) rows with n_in at most 4096, cols an intp
        index per input, and every index inside the table.
        """
        act = np.ascontiguousarray(act)     # a later layer's rows are the transposed tanh
        if not (lut.ndim == 3 and act.ndim == 2 and w.shape == (lut.shape[0], act.shape[1])
                and cols.shape == act.shape[1:] and cols.dtype == np.intp
                and lut.dtype == w.dtype == act.dtype == np.float64):
            return None
        n_out, n_cols, r = lut.shape
        n_rows, n_in = act.shape
        buf, doubles, indices = self._buffer, self._doubles, self._indices
        try:
            inputs = buf(doubles, lut), buf(indices, cols), buf(doubles, w), buf(doubles, act)
        except ValueError:                      # an array that is not C-contiguous
            return None
        out = np.empty((n_out, n_rows, n_in))
        if self._lib.layer_outputs(inputs[0], n_out, n_cols, r, *inputs[1:], n_rows, n_in,
                                   hp.i_min, hp.i_max, hp.span, buf(doubles, out)):
            return None
        return out


def load() -> Kernel | None:
    """The kernel, built and loaded on the first call in a process; None selects numpy."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = Kernel(_build())
        except Exception as exc:        # any failure leaves numpy as the probe read
            _loaded = f"{type(exc).__name__}: {exc}"
    return _loaded if isinstance(_loaded, Kernel) else None


def describe() -> str:
    """The active LUT reads: the kernel's library path, or numpy and why."""
    kern = load()
    return f"kernel {kern.path}" if kern is not None else f"numpy ({_loaded})"


def _build() -> Path:
    """Compile the library into the cache, unless it is there; return its path.

    The file name hashes the source, the compiler and its flags, so a change
    to any of them builds a new library. Once it is in place, the cache's
    other ``_probe-*.so`` files are removed; ``.tmp`` files are left to the
    builds that may be writing them.
    """
    import subprocess               # here, so that a process that reads no probes never loads it

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
