"""The compiled kernels: ``_probe.c``, built with gcc and loaded with cffi.

Four operations run this kernel when it loads and their numpy body
otherwise, and both bodies give the same bits: the single-sample pass of a
layer of either kind, the read of its tables with their slope estimates and
its connection outputs ``w * x + read`` (NLW), or ``w * x`` alone (LW)
(``core.Workspace``, so ``forward_network`` and every training iteration);
``core._layer_outputs``, a LUT layer of a batch pass (``forward_batch``, so
``mse``, ``accuracy`` and ``render_surface``); the backprop and update steps
of a training iteration of either kind of net (``train._backprop_numpy``:
the output error and the deltas, computed inside the call;
``train._updates_numpy``: the linear updates and, for NLW, the LUT steps,
the gate draw and the table writes), two C passes around numpy's
``np.expm1`` of the gain arguments, and
``regularize._diffuse_rows``, the gated diffusion of a training iteration,
which leaves its ``tanh`` to numpy between two C passes. On the kernel path
a training iteration leaves only the forward sum, the bias add, ``tanh`` and
``expm1`` to numpy.

The single-sample operations run through a network's workspace: the
``bind_*`` methods check a set of arrays once (dtype, shape, contiguity,
writability) and fill one C struct with their pointers and sizes, and the
call they return passes that struct and then only what changes per call,
with no further check on the Python side. The structs and the functions
are declared once, in the block of ``_probe.c`` between ``CDEF_BEGINS``
and ``CDEF_ENDS``, which gcc compiles and cffi reads as its cdef. A bind
checks what it fixes, the layer widths and index maps among them; a C
function checks only the indices that change per call. The updates and
diffusion calls also set the workspace's one-entry ``check_due`` flag (a
written field of their structs) when a value they write is not finite, which
is how ``Trainer.run`` knows whether a log point needs a scan. The first of them
to run in a process builds the library, unless it is cached, and loads it. A
network's workspace loads it, so training and ``forward_network`` of
either kind do; an LW batch pass has no LUT layer, so LW ``forward_batch``
never imports cffi. The library is cached in the package's
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
from functools import partial
from pathlib import Path

import numpy as np

from .hyper import MAX_PROBE_OFFSETS

SOURCE = Path(__file__).with_name("_probe.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "gcc"
# no -ffast-math and no -march: a fused multiply-add or a reordered sum changes the bits
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# the lines of SOURCE that open and close its declarations, which are cffi's cdef
CDEF_BEGINS, CDEF_ENDS = "/* cffi cdef begins */", "/* cffi cdef ends */"
# the fields of each struct that its calls write: cffi's types drop const
WRITTEN = {"read_call": {"lo", "frac", "read", "slope", "outputs"},
           "updates_call": {"params", "luts", "visits", "hit", "step", "grad", "arg", "err",
                            "delta", "check_due"},
           "diffusion_call": {"luts", "visits", "pairs", "check_due"}}
# the pointer fields a bind may leave NULL (None): an LW net's LUT side, which the
# calls read only behind a NULL test or over its 0 rows
NULLABLE = {"read_call": {"lut", "lo", "frac", "read", "slope"},
            "updates_call": {"slope", "rates", "luts", "visits"}}
_DTYPES = {"double": np.float64, "ptrdiff_t": np.intp}

_loaded = None          # after the first load(): the Kernel, or why there is none


def _lengths(n, *arrays) -> bool:
    """Whether every one of arrays has the shape (n,)."""
    return all(a.shape == (n,) for a in arrays)


def _within(n, *maps) -> bool:
    """Whether every entry of each of maps is an index of n entries."""
    return all(m.size == 0 or 0 <= m.min() <= m.max() < n for m in maps)


class Kernel:
    """The loaded library. Each ``bind_*`` method checks its arrays once and returns
    a call on one struct of their pointers; or None, leaving the work to numpy,
    when the arrays are not what the C function reads (float64 or intp,
    C-contiguous, of matching shapes, the written ones writable). A bound call
    keeps its arrays alive."""

    def __init__(self, path: Path):
        import cffi

        self.path = path
        ffi = cffi.FFI()
        source = SOURCE.read_text()
        ffi.cdef(source[source.index(CDEF_BEGINS):source.index(CDEF_ENDS)])
        self._lib = ffi.dlopen(str(path))
        self._ffi = ffi
        self._doubles = ffi.typeof("double[]")

    def _bind(self, struct, functions, values):
        """The named functions, each bound to one new ``struct`` filled from values
        by field name; None unless each pointer field's array has the field's dtype
        (``double`` float64, ``ptrdiff_t`` intp), is C-contiguous, and writable
        where the calls write it, or is None, which leaves a ``NULLABLE`` field
        NULL. A field is a raw pointer, so each call holds the arrays."""
        ffi = self._ffi
        call, arrays = ffi.new(f"struct {struct} *"), []     # ffi.new fills it with zeros
        for name, field in ffi.typeof(f"struct {struct}").fields:
            value = values[name]
            if value is None and name in NULLABLE.get(struct, ()):
                continue
            if field.type.kind == "pointer":
                if not (isinstance(value, np.ndarray)
                        and value.dtype == _DTYPES[field.type.item.cname]):
                    return None
                try:
                    value = ffi.from_buffer(field.type, value,
                                            require_writable=name in WRITTEN[struct])
                except (ValueError, TypeError, BufferError):
                    return None
                arrays.append(value)        # a from_buffer pointer keeps its array alive
            setattr(call, name, value)
        bound = [partial(getattr(self._lib, fn), call) for fn in functions]
        for fn in bound:
            fn.arrays = arrays
        return bound

    def bind_read(self, lut, w, x, hp, lo, frac, read, slope, outputs):
        """``() -> None``: one layer of one sample, its table lut read at x into lo,
        frac, read and slope, and its connection outputs written into outputs.

        w is the layer's (n_out, n_in) weights, x its n_in inputs and lut its
        (n_out, n_in, r) tables; the call writes ``core._probed_read_numpy``'s four
        results in place, lo and frac (n_in) and read and slope (n_out, n_in), and
        the outputs ``w * x + read`` (n_out, n_in). An LW layer has no tables: lut,
        lo, frac, read and slope are None, which the call takes as NULL, and it
        writes the outputs ``w * x`` alone.
        """
        offsets = hp.probe_offsets
        k = offsets.shape[0]
        if lut is None:
            tables = all(a is None for a in (lo, frac, read, slope))
        else:
            tables = (lut.ndim == 3 and lut.shape[:2] == w.shape
                      and lo.shape == frac.shape == x.shape
                      and read.shape == slope.shape == w.shape and k <= MAX_PROBE_OFFSETS)
        if not (tables and w.ndim == 2 and w.shape[1:] == x.shape and outputs.shape == w.shape):
            return None
        n_out, n_in = w.shape
        bound = self._bind("read_call", ["probed_read"], dict(
            lut=lut, w=w, x=x, offsets=offsets, n_out=n_out, n_in=n_in,
            r=0 if lut is None else lut.shape[2], k=k, i_min=hp.i_min, i_max=hp.i_max,
            span=hp.span, lo=lo, frac=frac, read=read, slope=slope, outputs=outputs))
        return None if bound is None else bound[0]

    def bind_updates(self, ws, hp):
        """``(row, scale, new_scale) -> n_hit``: ``train._backprop_numpy`` and
        ``train._updates_numpy`` on ws, in place, with the gate uniforms of row
        ``row`` of the (n_gates, rows) block ``ws.gate_u``; -1 when the C
        functions decline.

        ws is a ``core.Workspace`` of a network of either kind, or anything with
        its attributes. An LW net has no LUT rows: its ``luts``, ``visits``,
        ``slope`` and ``rates`` are None, which the call takes as NULL, and its
        other LUT-side arrays are empty. update_args writes the output error
        ``err`` (y - target), the deltas, the steps and the gain arguments,
        numpy's expm1 runs on the arguments in place (not at s_a = 0), and
        update_apply writes the parameters, hit and the tables, visits
        stored at visit scale ``scale`` and written at ``new_scale``, and sets
        ``ws.check_due[0]`` (one intp entry) to 1 when a parameter, LUT entry
        or visit entry it wrote is not finite; a call that declines writes
        nothing and sets nothing.

        The bind checks what the call reads but never writes, once: the layer
        widths in ``ws.sizes`` against the params, the LUT rows, the deltas and
        the inputs, and the range of each index map (param_dst and conn_dst in
        the nodes, param_src in the inputs, src in lo), which ``core.Workspace``
        keeps read-only. The call checks what changes per call, the gate row
        and every lo in [0, r - 2], before it writes the params or the tables.
        """
        luts, gate_u, sizes = ws.luts, ws.gate_u, ws.sizes
        n_params, n_rows, n_nodes = ws.params.shape[0], ws.read.shape[0], ws.delta.size
        if not (sizes.ndim == 1 and sizes.size >= 2 and sizes.min() >= 1):
            return None
        n_in, n_out = sizes[:-1], sizes[1:]
        if luts is None:                        # LW: no LUT rows, every rate 1
            lut_side = n_rows == 0 and all(a is None for a in (ws.visits, ws.slope, ws.rates))
        else:
            lut_side = (n_rows == (n_in * n_out).sum() and luts.ndim == 2
                        and luts.shape[0] == n_rows and luts.shape == ws.visits.shape
                        and _lengths(n_rows, ws.slope) and _lengths(n_params, ws.rates))
        if not (lut_side and ws.params.ndim == 1 and n_params == ((n_in + 1) * n_out).sum()
                and n_nodes == n_out.sum() and _lengths(n_in.sum() + n_in.size, ws.inputs)
                and _lengths(n_params, ws.param_dst, ws.param_src)
                and gate_u.ndim == 2 and gate_u.shape[1] == n_rows
                and _lengths(n_rows, ws.read, ws.hit, ws.conn_dst, ws.src)
                and _lengths(n_params + n_rows, ws.grad, ws.arg)
                and _lengths(ws.frac.size, ws.lo, ws.frac)
                and _lengths(sizes[-1], ws.y, ws.target, ws.err)
                and _lengths(n_nodes, ws.delta, ws.step) and _lengths(1, ws.check_due)
                and _within(n_nodes, ws.param_dst, ws.conn_dst)
                and _within(ws.inputs.size, ws.param_src) and _within(ws.lo.size, ws.src)):
            return None
        bound = self._bind("updates_call", ["update_args", "update_apply"], {
            **vars(ws), **hp.to_dict(), "n_params": n_params, "n_rows": n_rows,
            "r": 0 if luts is None else luts.shape[1], "n_src": ws.lo.size,
            "n_layers": sizes.size - 1, "n_nodes": n_nodes, "n_inputs": ws.inputs.size,
            "n_gates": gate_u.shape[0]})
        if bound is None:
            return None
        args, apply = bound
        gain_on, gain_args, expm1 = hp.s_a != 0.0, ws.arg, np.expm1

        def updates(row, scale, new_scale):
            args()
            if gain_on:                         # at s_a = 0 the raw steps: no gain, no expm1
                expm1(gain_args, out=gain_args)     # numpy's expm1 of the arguments, in place
            return apply(row, scale, new_scale)

        return updates

    def bind_diffusion(self, luts, visits, pairs, hit, check_due, hp):
        """``(n_hit, scale) -> status``: ``regularize._diffuse_rows_numpy`` in place,
        on the rows hit[:n_hit] of the (rows, r) tables luts and visits; -1 when
        the C functions decline, writing nothing.

        numpy's tanh runs on the scaled gaps between the two C passes. The C
        diffuses one row at a time through pairs, a scratch of 4 * (r - 1)
        float64 entries, whatever it holds. A call that writes a LUT or visit
        entry that is not finite sets check_due[0], a one-entry intp array, to
        1, and one that writes only finite values leaves it as it is.
        """
        if not (luts.ndim == 2 and luts.shape == visits.shape and hit.ndim == 1
                and _lengths(1, check_due) and _lengths(4 * (luts.shape[1] - 1), pairs)):
            return None
        n_rows, r = luts.shape
        bound = self._bind("diffusion_call", ["diffusion_gaps", "diffuse_rows"], dict(
            luts=luts, visits=visits, pairs=pairs, check_due=check_due, hit=hit,
            n_rows=n_rows, r=r, r_a=hp.r_a, r_b=hp.r_b, v_min=hp.v_min))
        if bound is None:
            return None
        gaps_of, rows = bound
        smooth, doubles = hp.r_a != 0.0, self._doubles
        null, buf = self._ffi.NULL, self._ffi.from_buffer

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
        buf, doubles = self._ffi.from_buffer, self._doubles
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
