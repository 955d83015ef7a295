"""Metrics and generalization-surface rendering.

Error is always the mean over samples of the mean squared output error,
so multi-output nets report a per-output average rather than a sum.
Classification reads a single output by sign (an exact zero counts as
wrong for either class) and multiple outputs by argmax. A rendered
surface is a plain 2-D array of raw outputs, which ``write_pgm`` writes.
"""
from __future__ import annotations

import numpy as np

from .core import Network, _require_fit, forward_batch
from .data import Dataset, _count, _pixel_grid

__all__ = [
    "mse",
    "accuracy",
    "render_surface",
    "write_pgm",
]


def mse(net: Network, ds: Dataset) -> float:
    """Mean over samples of the mean squared output error."""
    _require_fit(net, ds.args, ds.vals)
    return _mse(forward_batch(net, ds.args), ds.vals)


def _mse(outputs: np.ndarray, vals: np.ndarray) -> float:
    err = outputs - vals
    return float(np.mean(np.mean(err * err, axis=1)))


def accuracy(net: Network, ds: Dataset) -> float:
    """Fraction of samples classified correctly.

    Requires a classification dataset. Binary targets live on one value
    column and are read by strict sign; with k value columns the
    predicted class is the argmax output.
    """
    _require_fit(net, ds.args, ds.vals)
    if ds.classes is None:
        raise ValueError("accuracy needs a classification dataset")
    return _accuracy(forward_batch(net, ds.args), ds.vals)


def _accuracy(outputs: np.ndarray, vals: np.ndarray) -> float:
    if vals.shape[1] == 1:
        y, d = outputs[:, 0], vals[:, 0]
        correct = ((y > 0.0) & (d > 0.0)) | ((y < 0.0) & (d < 0.0))
    else:
        correct = np.argmax(outputs, axis=1) == np.argmax(vals, axis=1)
    return float(np.mean(correct))


# ---------------------------------------------------------------------------
# Surface rendering


def render_surface(net: Network, resolution: int = 64) -> np.ndarray:
    """Evaluate a 2-input 1-output net over the [-0.5, 0.5]^2 grid.

    Returns the (resolution, resolution) raw outputs; ``values[row, col]`` is the
    output at x = col coordinate, y = row coordinate, upper left at (-0.5, -0.5).
    """
    if net.n_inputs != 2 or net.n_outputs != 1:
        raise ValueError(
            f"rendering needs a 2-input 1-output network, got "
            f"{net.n_inputs} -> {net.n_outputs}"
        )
    resolution = _count("resolution", resolution, 1)
    return forward_batch(net, _pixel_grid(resolution))[:, 0].reshape(resolution, resolution)


def quantize_gray(values: np.ndarray) -> np.ndarray:
    """Map values to bytes, -0.5 black to +0.5 white: clamp(v + 0.5, 0, 1) * 255, .5 up."""
    level = np.clip(np.asarray(values, dtype=float) + 0.5, 0.0, 1.0) * 255.0
    return np.floor(level + 0.5).astype(np.uint8)


def write_pgm(values: np.ndarray, path) -> None:
    """Write a 2-D value array, row 0 on top, as a binary PGM (magic P5, maxval 255)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"surface must be a 2-D array, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("surface contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii"))
        fh.write(quantize_gray(values).tobytes())
