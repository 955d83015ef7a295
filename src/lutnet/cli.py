"""Command-line front end: gen-data, train, eval, render, bench.

Each setting is one row of ``_SETTINGS``: converter, default, smallest
accepted value and help. The row adds the setting's flag to each command
that takes it, and converts and checks the flag's value and a ``key =
value`` line of a ``--config`` file alike. A flag beats the config file,
which beats the default. Exit codes: 0 success, 1 usage or configuration
error, 2 runtime error (training divergence, unreadable or malformed files).

Training writes a versioned JSON model whose rng descriptor carries the
run seed and the gate generator state, so ``--resume`` continues a run
bit-exactly; ``--iterations`` then counts additional iterations. A setting the model
fixes (arch, kind, seed, a hyperparameter) may be given again only with the model's value.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from . import bench as bench_mod
from . import kernel
from .core import _require_fit, forward_batch, init_network
from .data import (
    CsvSchema,
    Dataset,
    GENERATORS,
    gen_circle,
    gen_md2,
    gen_two_spirals,
    gen_two_spirals_sparse,
    load_csv,
    scale_args,
    write_csv,
)
from .evaluate import _accuracy, _mse, mse, render_surface, write_pgm
from .hyper import Hyperparameters, KINDS, default_hyperparameters
from .modelio import load_model, save_model
from .train import Trainer, TrainingDiverged

__all__ = ["main", "parse_arch", "UsageError"]


class UsageError(Exception):
    """A problem with what was asked for, not with carrying it out."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for runtime errors
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Settings: one row each, for its flag and its config line alike

def _number(kind, noun: str):
    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"must be {noun}, got {text!r}") from None
    return convert


_INT, _FLOAT = _number(int, "an integer"), _number(float, "a number")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return lowered in ("1", "true", "yes", "on")
    raise ValueError(f"must be a boolean (true/false, yes/no, on/off, 1/0), got {text!r}")


def _fraction(text: str) -> float:
    value = _FLOAT(text)
    if not 0 < value <= 1:
        raise ValueError(f"must be in (0, 1], got {value}")
    return value


def _parse_columns(text: str) -> tuple[int, ...]:
    """Comma list of column indices; a range such as 0-3 counts up."""
    cols: list[int] = []
    for token in filter(str.strip, text.split(",")):
        lo, dash, hi = (part.strip() for part in token.partition("-"))
        hi = hi if dash else lo
        if not (lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
            raise ValueError(f"must list column indices or ranges like 0-3, got {text!r}")
        cols.extend(range(int(lo), int(hi) + 1))
    if not cols:
        raise ValueError(f"must list at least one column, got {text!r}")
    return tuple(cols)


class _OneOf(tuple):
    """Converter that accepts only its members; a flag lists them as argparse choices."""
    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"must be one of {', '.join(self)}, got {text!r}")
        return text


class _Setting(NamedTuple):
    convert: Callable = str   # text of a flag or config line -> value; ValueError if bad
    default: object = None    # value when neither a flag nor the config file gives one
    minimum: object = None    # smallest accepted value
    help: str | None = None


# a hyperparameter neither gives keeps its value from default_hyperparameters(kind);
# its help is its line in the Hyperparameters docstring
_DOC = dict(line.split(None, 1) for line in Hyperparameters.__doc__.splitlines() if line.strip())
_HYPER = {f.name: _Setting(_INT if type(f.default) is int else _FLOAT, help=_DOC.get(f.name))
          for f in fields(Hyperparameters)}
_SETTINGS = {
    **_HYPER,
    "arch": _Setting(help="layer sizes, e.g. 2-32-32-1 or X-4-3"),
    "kind": _Setting(_OneOf(KINDS)),
    "iterations": _Setting(_INT, None, 0, "iterations to run; with --resume, to add"),
    "seed": _Setting(_INT, 0, 0),
    "data": _Setting(help=f"one of {', '.join(GENERATORS)}, circle-full, or a CSV path"),
    "data_n": _Setting(_INT, 10000, 1, "sample count for generated regression sets"),
    "data_seed": _Setting(_INT, 0, 0),
    "data_fraction": _Setting(_fraction, 0.15, help="kept pixel share of the circle mask"),
    "out": _Setting(help="file to write: the model, dataset CSV, PGM or timing CSV"),
    "log": _Setting(help="training-log CSV path"),
    "log_every": _Setting(_INT, 1000, 0),
    "checkpoint_every": _Setting(_INT, None, 0),
    "test_data": _Setting(help="dataset evaluated at every log point"),
    "scale": _Setting(_parse_bool, False, help="min-max scale args into [-0.5, 0.5]"),
    "csv_args": _Setting(_parse_columns, help="argument column indices, e.g. 0,1,2,3 or 0-3"),
    "csv_vals": _Setting(_parse_columns, help="numeric value column indices"),
    "csv_class": _Setting(_INT, None, 0, "categorical class column index"),
    "csv_categorical": _Setting(_parse_columns, help="argument columns to one-hot encode"),
    "csv_header": _Setting(_parse_bool, False, help="first row is a header"),
    "resolution": _Setting(_INT, 64, 1),
    "reps": _Setting(_INT, 5, 1),
}

# render and bench read no config file, so their own settings are no config keys
_CONFIG_KEYS = _SETTINGS.keys() - {"resolution", "reps"}


def _value(key: str, text: str, name: str):
    """Setting ``key`` from ``text``, converted and range-checked; ``name`` says where."""
    row = _SETTINGS[key]
    try:
        value = row.convert(text)
    except ValueError as exc:
        raise UsageError(f"{name} {exc}") from None
    if row.minimum is not None and value < row.minimum:
        raise UsageError(f"{name} must be at least {row.minimum}, got {value}")
    return value


def _add_settings(parser, *keys: str, required: bool = False) -> None:
    """Add the flags of table settings; each keeps its text until main converts it."""
    for key in keys:
        row = _SETTINGS[key]
        extra = ({"action": "store_const", "const": "true"} if row.convert is _parse_bool
                 else {"choices": row.convert} if isinstance(row.convert, _OneOf) else {})
        parser.add_argument(f"--{key.replace('_', '-')}", required=required,
                            help=row.help, **extra)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{line_no}: expected key = value, got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{line_no}: unknown setting {key!r}")
        values[key] = _value(key, raw, f"{path}:{line_no}: {key}")
    return values


def _build_hyper(ns, kind: str) -> Hyperparameters:
    overrides = {k: getattr(ns, k) for k in _HYPER if getattr(ns, k, None) is not None}
    try:
        hp = default_hyperparameters(kind)
        return hp.replace(**overrides) if overrides else hp
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_arch(text: str, n_args: int | None = None) -> tuple[int, ...]:
    """Dash-separated layer sizes; a leading literal X is the input count."""
    parts = text.strip().split("-")
    sizes = []
    for i, part in enumerate(parts):
        part = part.strip()
        if part in ("X", "x") and i == 0:
            if n_args is None:
                raise UsageError("architecture uses X but no dataset fixes it")
            sizes.append(n_args)
            continue
        if not part.isdigit() or int(part) < 1:
            raise UsageError(f"bad architecture {text!r}: token {part!r}")
        sizes.append(int(part))
    if len(sizes) < 2:
        raise UsageError(f"architecture {text!r} needs at least input and output sizes")
    return tuple(sizes)


# ---------------------------------------------------------------------------
# Dataset resolution

def _load_dataset(ns, loaded=None) -> Dataset:
    """The --data set, checked against a loaded model and min-max scaled by its
    stored scale if it has one; else --scale scales a CSV set by its own range."""
    if ns.data is None:
        raise UsageError("no dataset given (--data)")
    ds = _dataset_from_source(ns, ns.data)
    if loaded is not None:
        _require_dims(loaded.net, ds)
        if loaded.scale is not None:
            return scale_args(ds, loaded.scale)
    return scale_args(ds) if ns.scale and "source" in ds.provenance else ds


def _dataset_from_source(ns, source: str) -> Dataset:
    seed = ns.data_seed
    if source == "circle":
        train, _ = gen_circle(sampling_seed=seed, sampling_fraction=ns.data_fraction)
        return train
    if source == "circle-full":
        return gen_circle(sampling_seed=seed)[1]
    if source == "spirals":
        return gen_two_spirals()
    if source == "spirals-sparse":
        return gen_two_spirals_sparse()
    if source == "md2":
        return gen_md2(ns.data_n, seed=seed)

    # anything else is a CSV path and needs a schema
    if ns.csv_args is None:
        raise UsageError(f"{source}: CSV input needs --csv-args")
    try:
        schema = CsvSchema(
            arg_columns=ns.csv_args,
            val_columns=ns.csv_vals or (),
            class_column=ns.csv_class,
            categorical_args=ns.csv_categorical or (),
            header=ns.csv_header,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return load_csv(source, schema)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(ns) -> int:
    source = "circle-full" if ns.full and ns.name == "circle" else ns.name
    ds = _dataset_from_source(ns, source)
    write_csv(ds, ns.out)
    print(f"wrote {len(ds)} samples to {ns.out}")
    return 0


def _require_dims(net, ds: Dataset) -> None:
    try:
        _require_fit(net, ds.args, ds.vals)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resume_rng(path, state) -> tuple[int, dict]:
    """The run seed and gate state of a model's rng descriptor.

    A descriptor without both, or with a seed that is not a non-negative int
    (a bool is not one), raises ValueError naming the file: a runtime error,
    as for any malformed model file. ``Trainer.restore`` checks the gate state.
    """
    if not (isinstance(state, dict) and "seed" in state and "gate" in state):
        raise ValueError(f"{path}: model has no resumable rng state")
    seed = state["seed"]
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{path}: rng seed must be a non-negative integer, got {seed!r}")
    return seed, state["gate"]


def cmd_train(ns) -> int:
    loaded = load_model(ns.resume) if ns.resume else None
    ds = _load_dataset(ns, loaded)
    scale = ds.provenance.get("scale")
    test_ds = _dataset_from_source(ns, ns.test_data) if ns.test_data else None

    for key in ("iterations", "out") + (() if loaded else ("arch", "kind")):
        if getattr(ns, key) is None:          # a new run also needs its net
            raise UsageError(f"--{key} must be given")

    if loaded is not None:
        net = loaded.net
        seed, gate = _resume_rng(ns.resume, loaded.rng_state)
        fixed = {"arch": "-".join(map(str, net.sizes)), "kind": net.kind, "seed": seed,
                 **net.hp.to_dict()}
        for key, value in ns.given.items():   # a setting the model fixes may only repeat it
            same = "-".join(map(str, parse_arch(value, ds.n_args))) if key == "arch" else value
            if key in fixed and same != fixed[key]:
                raise UsageError(f"--resume: {key} {value} differs from the model's {fixed[key]}")
        trainer = Trainer(net, ds.args, ds.vals, seed=seed)
        try:
            trainer.restore(loaded.iteration, gate)
        except ValueError as exc:
            raise ValueError(f"{ns.resume}: {exc}") from None
    else:
        sizes = parse_arch(ns.arch, n_args=ds.n_args)
        hp = _build_hyper(ns, ns.kind)
        seed = ns.seed
        net = init_network(
            sizes, ns.kind, hp,
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0]))),
        )
        _require_dims(net, ds)
        trainer = Trainer(net, ds.args, ds.vals, seed=seed)
    if test_ds is not None:
        _require_dims(net, test_ds)
        if scale is not None:                 # score it the way the model sees inputs
            test_ds = scale_args(test_ds, scale)

    def rng_descriptor() -> dict:
        return {"seed": seed, "gate": trainer.gate_state()}

    log_fh = open(ns.log, "w", newline="", encoding="utf-8") if ns.log else None
    try:
        log_writer = None
        if log_fh is not None:
            log_writer = csv.writer(log_fh)
            header = ["iteration", "train_mse"]
            if test_ds is not None:
                header.append("test_mse")
            log_writer.writerow(header)

        def on_log(tr: Trainer, window_mse: float) -> None:
            if log_writer is None:
                return
            row = [tr.iteration, repr(window_mse)]
            if test_ds is not None:
                row.append(repr(mse(tr.net, test_ds)))
            log_writer.writerow(row)

        def on_checkpoint(tr: Trainer) -> None:
            save_model(ns.out, tr.net, tr.iteration, rng_descriptor(), scale)

        trainer.run(
            ns.iterations,
            log_every=ns.log_every or 0,
            on_log=on_log,
            checkpoint_every=ns.checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
    finally:
        if log_fh is not None:
            log_fh.close()

    save_model(ns.out, trainer.net, trainer.iteration, rng_descriptor(), scale)
    print(f"trained to iteration {trainer.iteration}, model written to {ns.out}")
    return 0


def cmd_eval(ns) -> int:
    loaded = load_model(ns.model)
    if ns.scale and loaded.scale is None:     # a test set's own min/max is the wrong scale
        raise UsageError(f"--scale: {ns.model} stores no training input scale")
    ds = _load_dataset(ns, loaded)
    outputs = forward_batch(loaded.net, ds.args)          # one pass scores both
    print(f"mse {_mse(outputs, ds.vals):.12g}")
    if ds.classes is not None:
        print(f"accuracy {_accuracy(outputs, ds.vals):.12g}")
    return 0


def cmd_render(ns) -> int:
    loaded = load_model(ns.model)
    try:
        img = render_surface(loaded.net, ns.resolution)
    except ValueError as exc:                 # not a 2-input 1-output model
        raise UsageError(str(exc)) from None
    write_pgm(img, ns.out)
    print(f"wrote {img.shape[1]}x{img.shape[0]} surface to {ns.out}")
    return 0


def cmd_bench(ns) -> int:
    archs = [parse_arch(text) for text in ns.archs.split(",") if text.strip()]
    kinds = [_value("kind", k.strip(), "--kinds") for k in ns.kinds.split(",") if k.strip()]
    if not kinds or len(set(kinds)) < len(kinds):
        raise UsageError(f"--kinds must name one or more kinds, each once, got {ns.kinds!r}")
    try:
        rres_values = tuple(int(t) for t in (ns.rres_values or "").split(",") if t.strip())
    except ValueError:
        raise UsageError(f"--rres-values must be a comma list of integers, "
                         f"got {ns.rres_values!r}") from None
    if rres_values and "NLW" not in kinds:    # LW has no table to sweep
        raise UsageError(f"--rres-values sweeps NLW's r_res: --kinds {ns.kinds!r} names no NLW")
    # table lengths are checked here, before the first timing run
    for flag, r_res in [("--r-res", ns.r_res)] + [("--rres-values", r) for r in rres_values]:
        try:
            if r_res is not None:
                Hyperparameters(r_res=r_res)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None

    reports = []
    for kind in kinds:
        sweep = rres_values if kind == "NLW" else ()
        try:
            report = bench_mod.bench_iterations(
                archs, kind, hp=_build_hyper(ns, kind), reps=ns.reps, rres_values=sweep,
                seed=ns.seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        reports.append(report)
    print(kernel.describe_numpy())
    print(f"kernel: {kernel.describe()}")     # training runs it, of either kind
    for report in reports:
        (train_a, train_b), (fwd_a, fwd_b) = report.train_fit, report.forward_fit
        print(f"{report.kind}: train {train_a:.4g} + {train_b:.4g}*n ms, "
              f"forward {fwd_a:.4g} + {fwd_b:.4g}*n ms")

    if len(reports) == 2 and {r.kind for r in reports} == set(KINDS):
        slope = {r.kind: r.train_fit[1] for r in reports}
        if slope["LW"] > 0.0:
            print(f"NLW/LW training slope ratio {slope['NLW'] / slope['LW']:.3g}")
        else:                                 # a flat or falling LW fit is timing noise
            print(f"NLW/LW training slope ratio undefined: LW slope {slope['LW']:.3g} "
                  f"ms per connection")

    if ns.out:
        with open(ns.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "arch", "connections", "r_res", "phase", "ms_per_iter"])
            for report in reports:
                for r in report.rows + report.rres_rows:
                    writer.writerow([r.kind, "-".join(map(str, r.arch)), r.connections,
                                     r.r_res, r.phase, repr(r.ms_per_iter)])
        print(f"wrote timing rows to {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lutnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sampling = ("data_seed", "data_n", "data_fraction")
    csv_schema = ("csv_args", "csv_vals", "csv_class", "csv_categorical", "csv_header", "scale")

    p = sub.add_parser("gen-data", help="write a benchmark dataset as CSV")
    p.add_argument("name", choices=GENERATORS)
    _add_settings(p, "out", required=True)
    p.add_argument("--config", default=None)
    _add_settings(p, *sampling)
    p.add_argument("--full", action="store_true",
                   help="for circle: write every pixel instead of the training mask")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a network on a dataset")
    p.add_argument("--config", default=None, help="key = value settings file")
    _add_settings(p, "arch", "kind", "iterations", "seed", "out")
    p.add_argument("--resume", help="model file to continue from; --iterations adds to it")
    _add_settings(p, "log", "log_every", "checkpoint_every", "test_data", "data", *sampling)
    _add_settings(p.add_argument_group("csv schema"), *csv_schema)
    _add_settings(p.add_argument_group("hyperparameters"), *_HYPER)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report metrics of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    _add_settings(p, "data", *sampling)
    _add_settings(p.add_argument_group("csv schema"), *csv_schema)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render the 2-d response surface as PGM")
    p.add_argument("--model", required=True)
    _add_settings(p, "resolution")
    _add_settings(p, "out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="time training and forward iterations")
    p.add_argument("--archs", required=True, help="comma-separated architectures, at least 4")
    p.add_argument("--kinds", default="LW,NLW")
    _add_settings(p, "reps", "seed", "r_res")
    p.add_argument("--rres-values", help="comma list of table lengths to sweep on the first arch")
    _add_settings(p, "out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:               # argparse exits; keep the code
        return int(exc.code or 0)
    try:
        # each setting of the command: its flag, else its config line, else its default
        flags = {key: _value(key, text, f"--{key.replace('_', '-')}")
                 for key, text in vars(ns).items() if key in _SETTINGS and text is not None}
        config = parse_config_file(ns.config) if getattr(ns, "config", None) else {}
        ns.given = {**config, **flags}
        for key in _SETTINGS.keys() & vars(ns).keys():
            setattr(ns, key, ns.given.get(key, _SETTINGS[key].default))
        return ns.func(ns)
    except UsageError as exc:
        print(f"lutnet: error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"lutnet: training aborted: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"lutnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
