"""Benchmark dataset generators, CSV ingestion, scaling, and splitting.

Every dataset is a pair of float matrices: ``args`` holds one row of
argument attributes per sample and ``vals`` one row of value attributes.
Classification targets are encoded on the value side as +0.5 for the
true class and -0.5 otherwise, matching the black/white pixel convention
used by the image sets; a binary problem therefore needs a single value
column and a k-class problem needs k of them.

Generators are pure functions of their seeds, so any set can be rebuilt
bit-for-bit from its provenance record.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "CsvSchema",
    "gen_circle",
    "gen_two_spirals",
    "gen_two_spirals_sparse",
    "gen_md2",
    "md2_value",
    "load_csv",
    "write_csv",
    "scale_args",
    "split",
    "GENERATORS",
]


@dataclass
class Dataset:
    """A fixed-size collection of dimensionally consistent samples.

    ``classes`` names the class labels for classification sets (the
    position in the tuple is the value column carrying that class for
    multi-class sets, or the sign for binary sets); regression sets
    leave it as None. ``provenance`` records how the set was made:
    generator name and parameters, source file, applied scaling.
    """

    args: np.ndarray
    vals: np.ndarray
    classes: tuple[str, ...] | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.args = np.atleast_2d(np.asarray(self.args, dtype=float))
        self.vals = np.atleast_2d(np.asarray(self.vals, dtype=float))
        if self.args.ndim != 2 or self.vals.ndim != 2:
            raise ValueError("args and vals must be 2-d (samples x attributes)")
        if self.args.shape[0] != self.vals.shape[0]:
            raise ValueError(
                f"{self.args.shape[0]} argument rows vs {self.vals.shape[0]} value rows"
            )
        if self.classes is not None:
            self.classes = tuple(self.classes)

    @property
    def n_args(self) -> int:
        return self.args.shape[1]

    @property
    def n_vals(self) -> int:
        return self.vals.shape[1]

    def __len__(self) -> int:
        return self.args.shape[0]

    def subset(self, indices, provenance: dict | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        prov = dict(self.provenance)
        if provenance:
            prov.update(provenance)
        return Dataset(self.args[idx].copy(), self.vals[idx].copy(), self.classes, prov)


# ---------------------------------------------------------------------------
# Generators

BINARY_CLASSES = ("neg", "pos")


def gen_circle(
    resolution: int = 64,
    sampling_seed: int = 0,
    sampling_fraction: float = 0.15,
) -> tuple[Dataset, Dataset]:
    """Disk-membership image set: returns (train, full).

    The full set has one sample per pixel of a resolution x resolution
    grid spanning [-0.5, 0.5]^2, valued +0.5 inside the centered disk of
    radius 0.3 (boundary counts as inside) and -0.5 outside. The train
    set keeps a seeded random subset of round(fraction * pixels) pixels,
    standing in for a sparse sampling mask of the image.
    """
    if resolution < 8:
        raise ValueError(f"resolution {resolution} < 8")
    if not 0.0 < sampling_fraction <= 1.0:
        raise ValueError(f"sampling fraction {sampling_fraction} outside (0, 1]")
    coords = np.linspace(-0.5, 0.5, resolution)
    xx, yy = np.meshgrid(coords, coords)          # row-major: y varies per row
    args = np.column_stack([xx.ravel(), yy.ravel()])
    inside = args[:, 0] ** 2 + args[:, 1] ** 2 <= 0.3 * 0.3
    vals = np.where(inside, 0.5, -0.5)[:, None]
    prov = {"generator": "circle", "resolution": resolution}
    full = Dataset(args, vals, BINARY_CLASSES, dict(prov))

    n_keep = int(round(sampling_fraction * len(full)))
    rng = np.random.default_rng(sampling_seed)
    keep = np.sort(rng.permutation(len(full))[:n_keep])
    train = full.subset(
        keep,
        {"sampling_seed": sampling_seed, "sampling_fraction": sampling_fraction},
    )
    return train, full


def complement(full: Dataset, part: Dataset) -> Dataset:
    """Samples of full whose argument rows do not appear in part.

    Rows match on exact binary equality, so this inverts a subset taken
    from the same arrays, e.g. the held-out pixels of a sampled image.
    """
    if full.n_args != part.n_args:
        raise ValueError(
            f"argument widths differ: {full.n_args} vs {part.n_args}"
        )
    seen = {row.tobytes() for row in np.ascontiguousarray(part.args)}
    keep = [
        i
        for i, row in enumerate(np.ascontiguousarray(full.args))
        if row.tobytes() not in seen
    ]
    return full.subset(np.asarray(keep, dtype=np.intp), {"sampling_part": "holdout"})


def _spiral_arm() -> np.ndarray:
    """Arm A of the two-spirals construction, outermost point first."""
    i = np.arange(97, dtype=float)
    phi = i * np.pi / 16.0
    rho = 6.5 * (104.0 - i) / 104.0
    return np.column_stack([rho * np.sin(phi), rho * np.cos(phi)]) / 13.0


def gen_two_spirals() -> Dataset:
    """Two interleaved spiral arms of 97 points each, classes +/-0.5.

    Arm A starts at (0, 0.5) and winds inward; arm B is its point
    reflection through the origin. All coordinates lie in [-0.5, 0.5].
    """
    arm = _spiral_arm()
    args = np.vstack([arm, -arm])
    vals = np.repeat([0.5, -0.5], 97)[:, None]
    return Dataset(args, vals, BINARY_CLASSES, {"generator": "spirals"})


def gen_two_spirals_sparse() -> Dataset:
    """Interleaved-parity thinning of the two spirals set, 97 samples.

    Counting points within each arm from the inner end, arm A keeps the
    even-indexed points and arm B the odd-indexed ones, so the arms
    alternate which angular positions remain occupied.
    """
    full = gen_two_spirals()
    i = np.arange(97)
    inner_index = 96 - i                      # index 0 at the innermost point
    keep_a = i[inner_index % 2 == 0]
    keep_b = 97 + i[inner_index % 2 == 1]
    ds = full.subset(np.concatenate([keep_a, keep_b]))
    ds.provenance = {"generator": "spirals-sparse"}
    return ds


def md2_value(args) -> np.ndarray:
    """Five-argument product of oscillatory factors, each bounded by 1.

    ``args`` is an array whose last axis has length 5; the result drops
    that axis. The two square-root factors map sin terms through
    sqrt((sin + 1) / 2) - 1/2, staying within [-0.5, 0.5].
    """
    a = np.asarray(args, dtype=float)
    if a.shape[-1] != 5:
        raise ValueError(f"md2 needs 5 arguments per sample, got {a.shape[-1]}")
    x0, x1, x2, x3, x4 = (a[..., k] for k in range(5))
    return (
        np.sin(4.0 * x0)
        * np.cos(2.0 * x1 + 3.0 * x2)
        * (np.sqrt((np.sin(10.0 * x2 + 10.0 * x3) + 1.0) / 2.0) - 0.5)
        * np.sin(x3 - 4.0 * x1 * x4)
        * (np.sqrt((np.sin(10.0 * x0 - 10.0 * x2 + 10.0 * x3) + 1.0) / 2.0) - 0.5)
        * np.cos(5.0 * x1 * x2 * x4)
    )


def gen_md2(n: int, seed: int = 0) -> Dataset:
    """n noise-free regression samples of the md2 surface, args in [-0.5, 0.5)."""
    if n < 1:
        raise ValueError(f"sample count {n} < 1")
    rng = np.random.default_rng(seed)
    args = rng.random((n, 5)) - 0.5
    vals = md2_value(args)[:, None]
    return Dataset(args, vals, None, {"generator": "md2", "n": n, "seed": seed})


GENERATORS = ("circle", "spirals", "spirals-sparse", "md2")


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for :func:`load_csv`.

    Exactly one of ``val_columns`` (numeric targets read as-is) or
    ``class_column`` (categorical target, encoded to +/-0.5 value
    attributes) must be given. ``categorical_args`` marks argument
    columns holding labels rather than numbers; they are one-hot
    encoded, +0.5 for the present category and -0.5 elsewhere, with
    categories in sorted order.
    """

    arg_columns: tuple[int, ...]
    val_columns: tuple[int, ...] = ()
    class_column: int | None = None
    categorical_args: tuple[int, ...] = ()
    header: bool = False

    def __post_init__(self):
        object.__setattr__(self, "arg_columns", tuple(self.arg_columns))
        object.__setattr__(self, "val_columns", tuple(self.val_columns))
        object.__setattr__(self, "categorical_args", tuple(self.categorical_args))
        if not self.arg_columns:
            raise ValueError("schema needs at least one argument column")
        if (self.class_column is None) == (not self.val_columns):
            raise ValueError("give exactly one of val_columns or class_column")
        unknown = set(self.categorical_args) - set(self.arg_columns)
        if unknown:
            raise ValueError(f"categorical columns {sorted(unknown)} not argument columns")


def _parse_cell(row: list[str], col: int, line_no: int) -> float:
    try:
        return float(row[col])
    except ValueError:
        raise ValueError(
            f"line {line_no}: column {col} is not numeric: {row[col]!r}"
        ) from None


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a comma-separated file into a Dataset per the schema.

    Rows shorter than the schema demands raise with the offending line
    number, as do non-numeric cells in numeric columns. A binary class
    column becomes one +/-0.5 value attribute (sorted label order:
    first label negative); k > 2 labels become k one-hot columns.
    """
    needed = max(
        (*schema.arg_columns, *schema.val_columns,
         -1 if schema.class_column is None else schema.class_column)
    )
    rows: list[list[str]] = []
    line_nos: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue                       # blank line
            if row[0].lstrip().startswith("#"):
                continue                       # comment line
            if schema.header and not rows and not line_nos:
                line_nos.append(line_no)       # consume header once
                continue
            if len(row) <= needed:
                raise ValueError(
                    f"line {line_no}: {len(row)} fields, need at least {needed + 1}"
                )
            rows.append([cell.strip() for cell in row])
            line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data_lines = line_nos[1:] if schema.header else line_nos

    numeric_args = [c for c in schema.arg_columns if c not in schema.categorical_args]
    arg_blocks: list[np.ndarray] = []
    for col in schema.arg_columns:
        if col in numeric_args:
            vals = [_parse_cell(r, col, ln) for r, ln in zip(rows, data_lines)]
            arg_blocks.append(np.array(vals)[:, None])
        else:
            labels = [r[col] for r in rows]
            cats = sorted(set(labels))
            block = np.full((len(rows), len(cats)), -0.5)
            index = {c: k for k, c in enumerate(cats)}
            block[np.arange(len(rows)), [index[l] for l in labels]] = 0.5
            arg_blocks.append(block)
    args = np.hstack(arg_blocks)

    classes: tuple[str, ...] | None = None
    if schema.class_column is not None:
        labels = [r[schema.class_column] for r in rows]
        classes = tuple(sorted(set(labels)))
        index = {c: k for k, c in enumerate(classes)}
        if len(classes) < 2:
            raise ValueError(f"{path}: class column has a single label {classes}")
        if len(classes) == 2:
            vals = np.array([[0.5 if index[l] else -0.5] for l in labels])
        else:
            vals = np.full((len(rows), len(classes)), -0.5)
            vals[np.arange(len(rows)), [index[l] for l in labels]] = 0.5
    else:
        cols = [
            [_parse_cell(r, col, ln) for r, ln in zip(rows, data_lines)]
            for col in schema.val_columns
        ]
        vals = np.array(cols).T

    return Dataset(args, vals, classes, {"source": str(path)})


def write_csv(ds: Dataset, path, comments: dict | None = None) -> None:
    """Write args then vals as CSV, provenance as leading # comments."""
    notes = dict(ds.provenance)
    if comments:
        notes.update(comments)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in sorted(notes):
            fh.write(f"# {key}={notes[key]}\n")
        writer = csv.writer(fh)
        for i in range(len(ds)):
            writer.writerow(
                [repr(float(v)) for v in ds.args[i]]
                + [repr(float(v)) for v in ds.vals[i]]
            )


# ---------------------------------------------------------------------------
# Scaling and splitting


def scale_args(ds: Dataset, params: dict | None = None) -> Dataset:
    """Min-max scale each argument column into [-0.5, 0.5].

    Without ``params`` the column minima/maxima come from the data and
    are recorded in the result's provenance under "scale"; pass that
    record back in to apply a training set's scaling to test data.
    Constant columns map to all zeros.
    """
    if len(ds) == 0:
        raise ValueError("cannot scale an empty dataset")
    if params is None:
        lo = ds.args.min(axis=0)
        hi = ds.args.max(axis=0)
    else:
        lo = np.asarray(params["min"], dtype=float)
        hi = np.asarray(params["max"], dtype=float)
        if lo.shape != (ds.n_args,) or hi.shape != (ds.n_args,):
            raise ValueError("scaling parameters do not match argument count")
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (ds.args - lo) / safe - 0.5
    scaled[:, span == 0.0] = 0.0
    prov = dict(ds.provenance)
    prov["scale"] = {"min": lo.tolist(), "max": hi.tolist()}
    return Dataset(scaled, ds.vals.copy(), ds.classes, prov)


def split(ds: Dataset, train_fraction: float = 0.8, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then cut: ceil(fraction * n) train, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction {train_fraction} outside (0, 1)")
    n = len(ds)
    # the epsilon guards against 0.8 * 150 -> 120.00000000000001 ceiling to 121
    n_train = math.ceil(train_fraction * n - 1e-9)
    perm = np.random.default_rng(seed).permutation(n)
    mark = {"split_seed": seed, "train_fraction": train_fraction}
    train = ds.subset(perm[:n_train], {**mark, "split_part": "train"})
    test = ds.subset(perm[n_train:], {**mark, "split_part": "test"})
    return train, test
