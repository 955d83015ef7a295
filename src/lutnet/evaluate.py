"""Metrics and generalization-surface rendering.

Error is always the mean over samples of the mean squared output error,
so multi-output nets report a per-output average rather than a sum.
Classification reads a single output by sign (an exact zero counts as
wrong for either class) and multiple outputs by argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Network, _require_fit, forward_batch
from .data import Dataset

__all__ = [
    "mse",
    "accuracy",
    "SurfaceImage",
    "render_surface",
    "write_pgm",
]


def mse(net: Network, ds: Dataset) -> float:
    """Mean over samples of the mean squared output error."""
    _require_fit(net, ds.args, ds.vals)
    outputs = forward_batch(net, ds.args)
    err = outputs - ds.vals
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
    outputs = forward_batch(net, ds.args)
    if ds.n_vals == 1:
        y, d = outputs[:, 0], ds.vals[:, 0]
        correct = ((y > 0.0) & (d > 0.0)) | ((y < 0.0) & (d < 0.0))
    else:
        correct = np.argmax(outputs, axis=1) == np.argmax(ds.vals, axis=1)
    return float(np.mean(correct))


# ---------------------------------------------------------------------------
# Surface rendering


@dataclass
class SurfaceImage:
    """Grid of raw network outputs over the unit box.

    ``values[row, col]`` is the output at x = col coordinate, y = row
    coordinate; the upper-left pixel sits at (-0.5, -0.5). Rendering
    maps -0.5 to black and +0.5 to white, clamping values outside.
    """

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.height, self.width):
            raise ValueError(
                f"value grid {self.values.shape} does not match "
                f"{self.height} rows x {self.width} columns"
            )


def render_surface(net: Network, resolution: int = 64) -> SurfaceImage:
    """Evaluate a 2-input 1-output net over the [-0.5, 0.5]^2 grid."""
    if net.n_inputs != 2 or net.n_outputs != 1:
        raise ValueError(
            f"rendering needs a 2-input 1-output network, got "
            f"{net.n_inputs} -> {net.n_outputs}"
        )
    if resolution < 1:
        raise ValueError(f"resolution {resolution} < 1")
    coords = np.linspace(-0.5, 0.5, resolution)
    xx, yy = np.meshgrid(coords, coords)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    values = forward_batch(net, points)[:, 0].reshape(resolution, resolution)
    return SurfaceImage(resolution, resolution, values)


def quantize_gray(values: np.ndarray) -> np.ndarray:
    """Map values to bytes: clamp(v + 0.5, 0, 1) * 255, rounding .5 up."""
    level = np.clip(np.asarray(values, dtype=float) + 0.5, 0.0, 1.0) * 255.0
    return np.floor(level + 0.5).astype(np.uint8)


def write_pgm(img: SurfaceImage, path) -> None:
    """Write a binary PGM (magic P5, maxval 255)."""
    if not np.all(np.isfinite(img.values)):
        raise ValueError("surface contains non-finite values")
    raster = quantize_gray(img.values)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())

