"""Model persistence: a versioned JSON document per network.

The file holds everything needed to continue training bit-exactly:
architecture, kind, hyperparameters, every connection's parameters (the
scalar weight, or linear part plus LUT and visit tables), the iteration
counter, and the training gate generator's state. Floats are written in
shortest round-trip form, so save -> load -> save reproduces the file
byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Layer, Network
from .hyper import Hyperparameters, KIND_NLW, KINDS

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "LoadedModel", "save_model", "load_model"]

FORMAT_NAME = "lutnet-model"
FORMAT_VERSION = 1


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


def save_model(path, net: Network, iteration: int = 0, rng_state: dict | None = None) -> None:
    layers = []
    for lay in net.layers:
        entry = {"w": lay.w.tolist(), "bias": lay.bias.tolist()}
        if lay.lut is not None:
            entry["lut"] = lay.lut.tolist()
            entry["visits"] = lay.visits.tolist()
        layers.append(entry)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "architecture": list(net.sizes),
        "kind": net.kind,
        "hyperparameters": net.hp.to_dict(),
        "iteration": int(iteration),
        "rng": _plain(rng_state) if rng_state is not None else None,
        "layers": layers,
    }
    # encoded before the file is opened, so a non-finite value leaves no partial file
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.write("\n")


def _require(cond: bool, path, message: str) -> None:
    if not cond:
        raise ValueError(f"{path}: {message}")


def load_model(path) -> LoadedModel:
    """Read a model file back, validating shapes against its own header."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), path, "not a JSON object")
    _require(doc.get("format") == FORMAT_NAME, path, "not a model file")
    _require(
        doc.get("version") == FORMAT_VERSION,
        path,
        f"unsupported version {doc.get('version')!r}",
    )
    kind = doc.get("kind")
    _require(kind in KINDS, path, f"unknown kind {kind!r}")
    sizes = doc.get("architecture")
    _require(
        isinstance(sizes, list) and len(sizes) >= 2
        and all(isinstance(s, int) and s >= 1 for s in sizes),
        path,
        f"bad architecture {sizes!r}",
    )
    try:
        hp = Hyperparameters(**doc["hyperparameters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad hyperparameters: {exc}") from None

    raw_layers = doc.get("layers")
    _require(
        isinstance(raw_layers, list) and len(raw_layers) == len(sizes) - 1,
        path,
        f"expected {len(sizes) - 1} layers",
    )
    layers: list[Layer] = []
    for li, (entry, n_in, n_out) in enumerate(zip(raw_layers, sizes, sizes[1:])):
        w = np.asarray(entry.get("w"), dtype=float)
        bias = np.asarray(entry.get("bias"), dtype=float)
        _require(w.shape == (n_out, n_in), path, f"layer {li}: w shape {w.shape}")
        _require(bias.shape == (n_out,), path, f"layer {li}: bias shape {bias.shape}")
        lut = visits = None
        if kind == KIND_NLW:
            lut = np.asarray(entry.get("lut"), dtype=float)
            visits = np.asarray(entry.get("visits"), dtype=float)
            want = (n_out, n_in, hp.r_res)
            _require(lut.shape == want, path, f"layer {li}: lut shape {lut.shape} != {want}")
            _require(
                visits.shape == want, path, f"layer {li}: visits shape {visits.shape} != {want}"
            )
        elif "lut" in entry or "visits" in entry:
            raise ValueError(f"{path}: layer {li}: LUT tables in an LW model")
        for name, arr in (("w", w), ("bias", bias), ("lut", lut), ("visits", visits)):
            _require(arr is None or np.isfinite(arr).all(), path,
                     f"layer {li}: non-finite {name} entry")
        # the diffusion divides by visit entries
        _require(visits is None or (visits >= hp.v_min).all(), path,
                 f"layer {li}: visits entry below v_min")
        layers.append(Layer(w=w, bias=bias, lut=lut, visits=visits))

    iteration = doc.get("iteration", 0)
    _require(isinstance(iteration, int) and iteration >= 0, path, "bad iteration counter")
    rng_state = doc.get("rng")
    _require(rng_state is None or isinstance(rng_state, dict), path, "bad rng state")
    net = Network(tuple(sizes), kind, hp, layers)
    return LoadedModel(net=net, iteration=iteration, rng_state=rng_state)
