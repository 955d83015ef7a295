"""Feedforward networks whose connections carry piecewise-linear weight
functions, trained online with visit-driven diffusion regularization.

The public surface re-exports the pieces most callers need; the
submodules hold the rest (``core`` for structure and forward passes,
``train`` for learning, ``regularize`` for diffusion, ``data`` for
benchmark sets, ``evaluate``/``bench`` for measurement, ``modelio`` for
persistence, ``cli`` for the command line).
"""
from .hyper import (
    Hyperparameters,
    KIND_LW,
    KIND_NLW,
    KINDS,
    default_hyperparameters,
)
from .core import (
    Network,
    Layer,
    LutConnection,
    forward_network,
    forward_batch,
    init_network,
    interpolate,
    lut_grid,
)
from .train import Trainer, TrainingDiverged, train_iteration, backprop
from .regularize import diffuse_lut, diffuse_visits, update_visits, gain_decay
from .data import (
    Dataset,
    CsvSchema,
    complement,
    gen_circle,
    gen_md2,
    gen_two_spirals,
    gen_two_spirals_sparse,
    load_csv,
    scale_args,
    split,
)
from .evaluate import SurfaceImage, accuracy, mse, render_surface, write_pgm
from .modelio import LoadedModel, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "Hyperparameters", "KIND_LW", "KIND_NLW", "KINDS", "default_hyperparameters",
    "Network", "Layer", "LutConnection",
    "forward_network", "forward_batch", "init_network", "interpolate", "lut_grid",
    "Trainer", "TrainingDiverged", "train_iteration", "backprop",
    "diffuse_lut", "diffuse_visits", "update_visits", "gain_decay",
    "Dataset", "CsvSchema",
    "complement",
    "gen_circle", "gen_md2", "gen_two_spirals", "gen_two_spirals_sparse",
    "load_csv", "scale_args", "split",
    "SurfaceImage", "accuracy", "mse", "render_surface", "write_pgm",
    "LoadedModel", "load_model", "save_model",
    "__version__",
]
