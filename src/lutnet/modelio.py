"""Model persistence: a versioned JSON document per network.

The file holds everything needed to continue training bit-exactly:
architecture, kind, hyperparameters, the iteration counter, the
training gate generator's state, and the network's flat parameter
buffers (``Network.params`` and, for NLW, ``luts`` and ``visits``, in
the layout ``Network`` documents). Format version 2 stores each buffer
as one string: the padded base64 (RFC 4648) of its bytes as
little-endian float64 in C order. The bytes are the values themselves,
so save -> load -> save reproduces the file byte for byte, ``-0.0``
included. Version 1 files, which list every layer's arrays as JSON
numbers, still load; saves always write version 2.
"""
from __future__ import annotations

import base64
import json
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .core import Network, find_nonfinite
from .hyper import Hyperparameters, KIND_NLW, KINDS

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "LoadedModel", "save_model", "load_model"]

FORMAT_NAME = "lutnet-model"
FORMAT_VERSION = 2
_DTYPE = "<f8"


@dataclass
class LoadedModel:
    net: Network
    iteration: int
    rng_state: dict | None


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


def save_model(path, net: Network, iteration: int = 0, rng_state: dict | None = None) -> None:
    """Write the model file atomically, in format version 2.

    A network with a non-finite parameter is refused with ValueError
    before any file is opened. The document goes to a temporary file in
    the target's directory, which then replaces the target in one step:
    a save that fails leaves any earlier file at path as it was and
    removes its temporary file. A killed process may leave the
    temporary file, never a partial target. No fsync: the file is
    durable once the OS flushes.
    """
    bad = find_nonfinite(net)
    if bad is not None:
        raise ValueError(f"{os.fspath(path)}: cannot save a non-finite parameter at {bad}")
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "architecture": list(net.sizes),
        "kind": net.kind,
        "hyperparameters": net.hp.to_dict(),
        "iteration": int(iteration),
        "rng": _plain(rng_state) if rng_state is not None else None,
    }
    for key, buf in _buffers(net).items():
        doc[key] = base64.b64encode(buf.astype(_DTYPE, copy=False).tobytes()).decode("ascii")
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            fh.write(text)
            fh.write("\n")
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


def _fill(view: np.ndarray, value, path, what: str) -> None:
    """Copy a nested list from the file straight into a parameter view.

    The lengths along the first element at each depth must match the
    view's shape; numpy rejects a ragged list, so a list that passes
    both has exactly the view's shape.
    """
    probe = value
    for n in view.shape:
        _require(isinstance(probe, list) and len(probe) == n, path,
                 f"{what} shape is not {view.shape}")
        probe = probe[0]
    try:
        view[...] = value
    except (TypeError, ValueError):
        raise ValueError(f"{path}: {what} is not a numeric array of shape {view.shape}") from None


def _fill_v1(doc: dict, net: Network, path) -> None:
    """Copy version 1's per-layer JSON arrays into the network's views."""
    raw_layers = doc.get("layers")
    _require(
        isinstance(raw_layers, list) and len(raw_layers) == len(net.layers),
        path,
        f"expected {len(net.layers)} layers",
    )
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
    """Decode version 2's base64 buffers into the network's own buffers."""
    _require(net.kind == KIND_NLW or not ("luts" in doc or "visits" in doc), path,
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

    Both format versions fill the network's buffers, then pass the same
    checks on every layer: finite values, and visit entries at least
    ``v_min``.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), path, "not a JSON object")
    _require(doc.get("format") == FORMAT_NAME, path, "not a model file")
    # type(...) is int throughout: JSON true and false load as bool, an int subclass
    version = doc.get("version")
    _require(type(version) is int and version in (1, FORMAT_VERSION), path,
             f"unsupported version {version!r}")
    kind = doc.get("kind")
    _require(kind in KINDS, path, f"unknown kind {kind!r}")
    sizes = doc.get("architecture")
    _require(isinstance(sizes, list) and len(sizes) >= 2
             and all(type(s) is int and s >= 1 for s in sizes),
             path, f"bad architecture {sizes!r}")
    try:
        hp = Hyperparameters(**doc["hyperparameters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad hyperparameters: {exc}") from None

    net = Network(tuple(sizes), kind, hp)
    (_fill_v1 if version == 1 else _fill_v2)(doc, net, path)
    for li, lay in enumerate(net.layers):
        arrays = {"w": lay.w, "bias": lay.bias}
        if lay.lut is not None:
            arrays.update(lut=lay.lut, visits=lay.visits)
        for name, view in arrays.items():
            _require(np.isfinite(view).all(), path, f"layer {li}: non-finite {name} entry")
        # the diffusion divides by visit entries
        _require(lay.visits is None or (lay.visits >= hp.v_min).all(), path,
                 f"layer {li}: visits entry below v_min")

    iteration = doc.get("iteration", 0)
    _require(type(iteration) is int and iteration >= 0, path,
             f"bad iteration counter {iteration!r}")
    rng_state = doc.get("rng")
    _require(rng_state is None or isinstance(rng_state, dict), path, "bad rng state")
    return LoadedModel(net=net, iteration=iteration, rng_state=rng_state)
