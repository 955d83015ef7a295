"""Model persistence: a versioned JSON document per network.

The file holds everything needed to continue training bit-exactly:
architecture, kind, hyperparameters, the iteration counter, the
training gate generator's state, and the network's flat parameter
buffers (``Network.params`` and, for NLW, ``luts`` and ``visits``, in
the layout ``Network`` documents). Format version 3 stores each buffer
as one string: the padded base64 (RFC 4648) of its bytes as
little-endian float64 in C order. The bytes are the values themselves,
so save -> load -> save reproduces the file byte for byte, ``-0.0``
included. ``visits`` holds the stored visit entries, and an NLW file
adds their shared scale as the JSON number ``visit_scale`` in (0, 1]
(see ``Network``). Version 2 files are the same without that key, and
version 1 files list every layer's arrays as JSON numbers; both still
load, with visit scale 1. Saves always write version 3, which older
readers refuse. A model trained on min-max scaled inputs also stores
that scale, under the optional key ``scale``.
"""
from __future__ import annotations

import base64
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .core import Network, find_nonfinite
from .hyper import Hyperparameters, KIND_NLW

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "LoadedModel", "save_model", "load_model"]

FORMAT_NAME = "lutnet-model"
FORMAT_VERSION = 3
_DTYPE = "<f8"


@dataclass
class LoadedModel:
    net: Network
    iteration: int
    rng_state: dict | None
    scale: dict | None = None       # {"min": [...], "max": [...]} per input, if stored


def _plain(value):
    """Recursively convert numpy scalars so json can serialize rng state."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _buffers(net: Network) -> dict:
    """The network's parameter buffers by their file key."""
    if net.luts is None:
        return {"params": net.params}
    return {"params": net.params, "luts": net.luts, "visits": net.visits}


def save_model(path, net: Network, iteration: int = 0, rng_state: dict | None = None,
               scale: dict | None = None) -> None:
    """Write the model file atomically, in format version 3.

    ``scale`` (the training inputs' ``scale_args`` record) goes under key ``scale``.
    What ``load_model`` would refuse (a non-finite parameter, an iteration
    that is no non-negative int, an rng state that is no dict, a scale
    without ``n_inputs`` finite numbers under each of ``min`` and ``max``)
    raises ValueError before any file is opened. The document goes to a
    temporary file in the target's directory, which then replaces the target
    in one step: a save that fails leaves any earlier file at path as it was
    and removes its temporary file. A killed process may leave the temporary
    file, never a partial target. No fsync: durable once the OS flushes.
    """
    bad = find_nonfinite(net)
    if bad is not None:
        raise ValueError(f"{os.fspath(path)}: cannot save, {bad}")
    iteration, rng_state = _plain(iteration), _plain(rng_state)
    _check_run_state(iteration, rng_state, path)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "architecture": list(net.sizes),
        "kind": net.kind,
        "hyperparameters": net.hp.to_dict(),
        "iteration": iteration,
        "rng": rng_state,
    }
    if scale is not None:
        doc["scale"] = _plain(scale)
        _check_scale(doc["scale"], net.n_inputs, path)
    if net.visits is not None:
        doc["visit_scale"] = _plain(net.visit_scale)
        _check_visit_scale(doc["visit_scale"], path)
    # The buffers' base64 strings go straight to the file after the header: the
    # base64 alphabet needs no JSON escaping, so the bytes are what json.dumps of
    # the whole document would give, without its scan over every character.
    header = json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("ascii")
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header[:-1])
            for key, buf in _buffers(net).items():
                fh.write(f',"{key}":"'.encode("ascii"))
                fh.write(base64.b64encode(buf.astype(_DTYPE, copy=False).tobytes()))
                fh.write(b'"')
            fh.write(b"}\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _require(cond: bool, path, message: str) -> None:
    if not cond:
        raise ValueError(f"{path}: {message}")


def _check_run_state(iteration, rng_state, path) -> None:
    _require(type(iteration) is int and iteration >= 0, path,
             f"bad iteration counter {iteration!r}")
    _require(rng_state is None or isinstance(rng_state, dict), path, "bad rng state")


def _check_scale(scale, n_inputs: int, path) -> None:
    _require(scale is None or isinstance(scale, dict) and all(
        isinstance(col, list) and len(col) == n_inputs
        and all(type(v) in (int, float) and math.isfinite(v) for v in col)
        for col in (scale.get("min"), scale.get("max"))),
        path, f"bad scale: need min and max lists of {n_inputs} finite numbers")


def _check_visit_scale(visit_scale, path) -> None:
    _require(type(visit_scale) in (int, float) and 0.0 < visit_scale <= 1.0, path,
             f"bad visit_scale {visit_scale!r}: need a number in (0, 1]")


def _fill(view: np.ndarray, value, path, what: str) -> None:
    """Parse a nested list from the file as floats; copy it into a view of exactly its shape."""
    try:
        values = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: {what} is not a numeric array of shape {view.shape}") from None
    # checked, as the copy would broadcast a smaller shape
    _require(values.shape == view.shape, path, f"{what} shape is not {view.shape}")
    view[...] = values


def _fill_v1(doc: dict, net: Network, path) -> None:
    """Copy version 1's per-layer JSON arrays into the network's views."""
    raw_layers = doc.get("layers")
    _require(isinstance(raw_layers, list) and len(raw_layers) == len(net.layers), path,
             f"expected {len(net.layers)} layers")
    for li, (entry, lay) in enumerate(zip(raw_layers, net.layers)):
        _require(isinstance(entry, dict), path, f"layer {li}: not a JSON object")
        arrays = {"w": lay.w, "bias": lay.bias}
        if net.kind == KIND_NLW:
            arrays.update(lut=lay.lut, visits=lay.visits)
        elif "lut" in entry or "visits" in entry:
            raise ValueError(f"{path}: layer {li}: LUT tables in an LW model")
        for name, view in arrays.items():
            _fill(view, entry.get(name), path, f"layer {li}: {name}")


def _fill_v2(doc: dict, net: Network, path) -> None:
    """Decode the base64 buffers of versions 2 and 3 into the network's own buffers."""
    _require(net.kind == KIND_NLW or not ("luts" in doc or "visits" in doc
                                          or "visit_scale" in doc), path,
             "LUT tables in an LW model")
    for key, buf in _buffers(net).items():
        text = doc.get(key)
        _require(isinstance(text, str), path, f"{key} is missing or not a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:
            raise ValueError(f"{path}: {key} is not valid base64: {exc}") from None
        _require(len(raw) == buf.nbytes, path,
                 f"{key} holds {len(raw)} bytes, expected {buf.nbytes} "
                 f"for shape {buf.shape} of {_DTYPE}")
        # copied, not rebound: the layers' arrays are views into buf
        buf[...] = np.frombuffer(raw, _DTYPE).reshape(buf.shape)


def load_model(path) -> LoadedModel:
    """Read a model file back, validating it against its own header.

    Every format version fills the network's buffers, then passes the
    same checks: finite values, stored visit entries at least ``v_min``,
    and the optional scale that ``save_model`` checks. A version 3 NLW
    file must give ``visit_scale``; older files load with visit scale 1.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), path, "not a JSON object")
    _require(doc.get("format") == FORMAT_NAME, path, "not a model file")
    # type(...) is int throughout: JSON true and false load as bool, an int subclass
    version = doc.get("version")
    _require(type(version) is int and version in (1, 2, FORMAT_VERSION), path,
             f"unsupported version {version!r}")
    sizes = doc.get("architecture")
    _require(isinstance(sizes, list), path, f"bad architecture {sizes!r}")
    try:
        hp = Hyperparameters(**doc["hyperparameters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad hyperparameters: {exc}") from None
    try:
        net = Network(sizes, doc.get("kind"), hp)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

    (_fill_v1 if version == 1 else _fill_v2)(doc, net, path)
    if version == FORMAT_VERSION and net.visits is not None:
        _require("visit_scale" in doc, path, "visit_scale is missing")
        _check_visit_scale(doc["visit_scale"], path)
        net.visit_scale = float(doc["visit_scale"])
    bad = find_nonfinite(net)
    _require(bad is None, path, bad)
    for li, lay in enumerate(net.layers):
        # the diffusion divides by visit values; stored entries never fall below v_min
        _require(lay.visits is None or (lay.visits >= hp.v_min).all(), path,
                 f"layer {li}: visits entry below v_min")

    iteration, rng_state = doc.get("iteration", 0), doc.get("rng")
    _check_run_state(iteration, rng_state, path)
    _check_scale(doc.get("scale"), net.n_inputs, path)
    return LoadedModel(net=net, iteration=iteration, rng_state=rng_state, scale=doc.get("scale"))
