"""Command-line front end: gen-data, train, eval, render, bench.

Settings are resolved in three tiers: built-in defaults, then a
``key = value`` config file (``--config``), then explicit flags. Exit
codes: 0 success, 1 usage or configuration error, 2 runtime error
(training divergence, unreadable or malformed files).

Training writes a versioned JSON model whose rng descriptor carries the
run seed and the gate generator state, so ``--resume`` continues a run
bit-exactly; ``--iterations`` then counts additional iterations.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

import numpy as np

from . import bench as bench_mod
from .core import _require_fit, init_network
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
from .evaluate import accuracy, mse, render_surface, write_pgm
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
# Option plumbing

_HYPER_KEYS = {f.name: type(f.default) for f in fields(Hyperparameters)}

_RUN_KEYS = {
    "arch": str, "kind": str, "iterations": int, "seed": int,
    "data": str, "data_n": int, "data_seed": int, "data_fraction": float,
    "out": str, "log": str, "log_every": int, "checkpoint_every": int,
    "test_data": str, "scale": bool,
    "csv_args": str, "csv_vals": str, "csv_class": int,
    "csv_categorical": str, "csv_header": bool,
}

_CONVERTERS = {**_HYPER_KEYS, **_RUN_KEYS}

# values of settings that neither a flag nor the config file gave; the
# hyperparameters' come from default_hyperparameters(kind)
_DEFAULTS = {
    "seed": 0, "data_seed": 0, "data_n": 10000, "data_fraction": 0.15,
    "log_every": 1000, "scale": False, "csv_header": False,
}

# smallest accepted value of integer settings, checked before any work
_MINIMUMS = {
    "seed": 0, "data_seed": 0, "data_n": 1, "log_every": 0, "checkpoint_every": 0,
    "resolution": 1, "reps": 1,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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
        if key not in _CONVERTERS:
            raise UsageError(f"{path}:{line_no}: unknown setting {key!r}")
        convert = _parse_bool if _CONVERTERS[key] is bool else _CONVERTERS[key]
        try:
            values[key] = convert(raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
        _check_range(key, values[key], f"{path}:{line_no}: {key}")
    return values


def _check_range(key: str, value, name: str) -> None:
    if value is None:
        return
    if key in _MINIMUMS and value < _MINIMUMS[key]:
        raise UsageError(f"{name} must be at least {_MINIMUMS[key]}, got {value}")
    if key == "data_fraction" and not 0 < value <= 1:
        raise UsageError(f"{name} must be in (0, 1], got {value}")


def _build_hyper(ns, kind: str) -> Hyperparameters:
    overrides = {key: getattr(ns, key) for key in _HYPER_KEYS if getattr(ns, key) is not None}
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


def _parse_columns(text: str) -> tuple[int, ...]:
    """Comma list of column indices, ranges like 0-3 allowed."""
    cols: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token:
            lo, _, hi = token.partition("-")
            if not (lo.strip().isdigit() and hi.strip().isdigit()):
                raise UsageError(f"bad column range {token!r}")
            cols.extend(range(int(lo), int(hi) + 1))
        elif token.isdigit():
            cols.append(int(token))
        else:
            raise UsageError(f"bad column index {token!r}")
    if not cols:
        raise UsageError(f"no columns in {text!r}")
    return tuple(cols)


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
            arg_columns=_parse_columns(ns.csv_args),
            val_columns=_parse_columns(ns.csv_vals) if ns.csv_vals else (),
            class_column=ns.csv_class,
            categorical_args=_parse_columns(ns.csv_categorical) if ns.csv_categorical else (),
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


def cmd_train(ns) -> int:
    loaded = load_model(ns.resume) if ns.resume else None
    ds = _load_dataset(ns, loaded)
    scale = ds.provenance.get("scale")
    test_ds = _dataset_from_source(ns, ns.test_data) if ns.test_data else None

    iterations = ns.iterations
    if iterations is None or iterations < 0:
        raise UsageError("--iterations must be given and non-negative")
    out_path = ns.out
    if out_path is None:
        raise UsageError("no output model path (--out)")

    if loaded is not None:
        net = loaded.net
        state = loaded.rng_state or {}
        if "seed" not in state or "gate" not in state:
            raise UsageError(f"{ns.resume}: model has no resumable rng state")
        seed = int(state["seed"])
        trainer = Trainer(net, ds.args, ds.vals, seed=seed)
        trainer.restore(loaded.iteration, state["gate"])
    else:
        kind = ns.kind
        if ns.arch is None:
            raise UsageError("no architecture given (--arch)")
        sizes = parse_arch(ns.arch, n_args=ds.n_args)
        hp = _build_hyper(ns, kind)
        seed = ns.seed
        net = init_network(
            sizes, kind, hp,
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
            save_model(out_path, tr.net, tr.iteration, rng_descriptor(), scale)

        trainer.run(
            iterations,
            log_every=ns.log_every or 0,
            on_log=on_log,
            checkpoint_every=ns.checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
    finally:
        if log_fh is not None:
            log_fh.close()

    save_model(out_path, trainer.net, trainer.iteration, rng_descriptor(), scale)
    print(f"trained to iteration {trainer.iteration}, model written to {out_path}")
    return 0


def cmd_eval(ns) -> int:
    loaded = load_model(ns.model)
    if ns.scale and loaded.scale is None:     # a test set's own min/max is the wrong scale
        raise UsageError(f"--scale: {ns.model} stores no training input scale")
    ds = _load_dataset(ns, loaded)
    print(f"mse {mse(loaded.net, ds):.12g}")
    if ds.classes is not None:
        print(f"accuracy {accuracy(loaded.net, ds):.12g}")
    return 0


def cmd_render(ns) -> int:
    loaded = load_model(ns.model)
    try:
        img = render_surface(loaded.net, ns.resolution)
    except ValueError as exc:                 # not a 2-input 1-output model
        raise UsageError(str(exc)) from None
    write_pgm(img, ns.out)
    print(f"wrote {img.width}x{img.height} surface to {ns.out}")
    return 0


def cmd_bench(ns) -> int:
    archs = [parse_arch(text) for text in ns.archs.split(",") if text.strip()]
    kinds = [k.strip() for k in ns.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in KINDS:
            raise UsageError(f"kind must be one of {KINDS}, got {kind!r}")
    try:
        rres_values = tuple(int(t) for t in (ns.rres_values or "").split(",") if t.strip())
    except ValueError:
        raise UsageError(f"--rres-values must be a comma list of integers, "
                         f"got {ns.rres_values!r}") from None
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
        hp = default_hyperparameters(kind)
        if ns.r_res is not None:
            hp = hp.replace(r_res=ns.r_res)
        try:
            report = bench_mod.bench_iterations(
                archs, kind, hp=hp, reps=ns.reps, rres_values=sweep, seed=ns.seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        reports.append(report)
        (train_a, train_b), (fwd_a, fwd_b) = report.train_fit, report.forward_fit
        print(f"{kind}: train {train_a:.4g} + {train_b:.4g}*n ms, "
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

def _add_hyper_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("hyperparameters")
    for key, conv in _HYPER_KEYS.items():
        group.add_argument(f"--{key.replace('_', '-')}", type=conv, default=None)


def _add_csv_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("csv schema")
    group.add_argument("--csv-args", default=None,
                       help="argument column indices, e.g. 0,1,2,3 or 0-3")
    group.add_argument("--csv-vals", default=None,
                       help="numeric value column indices")
    group.add_argument("--csv-class", type=int, default=None,
                       help="categorical class column index")
    group.add_argument("--csv-categorical", default=None,
                       help="argument columns to one-hot encode")
    group.add_argument("--csv-header", action="store_const", const=True, default=None,
                       help="first row is a header")
    group.add_argument("--scale", action="store_const", const=True, default=None,
                       help="min-max scale argument columns into [-0.5, 0.5]")


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", default=None,
                     help=f"one of {', '.join(GENERATORS)}, circle-full, or a CSV path")
    sub.add_argument("--data-seed", type=int, default=None)
    sub.add_argument("--data-n", type=int, default=None,
                     help="sample count for generated regression sets")
    sub.add_argument("--data-fraction", type=float, default=None,
                     help="kept pixel fraction of the circle training mask")
    _add_csv_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lutnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="write a benchmark dataset as CSV")
    p.add_argument("name", choices=GENERATORS)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data-seed", type=int, default=None)
    p.add_argument("--data-n", type=int, default=None)
    p.add_argument("--data-fraction", type=float, default=None)
    p.add_argument("--full", action="store_true",
                   help="for circle: write every pixel instead of the training mask")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a network on a dataset")
    p.add_argument("--config", default=None, help="key = value settings file")
    p.add_argument("--arch", default=None, help="layer sizes, e.g. 2-32-32-1 or X-4-3")
    p.add_argument("--kind", default=None, choices=KINDS)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="model file to write")
    p.add_argument("--resume", default=None,
                   help="model file to continue from; --iterations adds to it")
    p.add_argument("--log", default=None, help="training-log CSV path")
    p.add_argument("--log-every", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--test-data", default=None,
                   help="dataset evaluated at every log point")
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report metrics of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render the 2-d response surface as PGM")
    p.add_argument("--model", required=True)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="time training and forward iterations")
    p.add_argument("--archs", required=True,
                   help="comma-separated architectures, at least 4")
    p.add_argument("--kinds", default="LW,NLW")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-res", type=int, default=None,
                   help="table length for the architecture sweep (default 64)")
    p.add_argument("--rres-values", default=None,
                   help="comma list of table lengths to sweep on the first arch")
    p.add_argument("--out", default=None, help="timing CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:               # argparse exits; keep the code
        return int(exc.code or 0)
    try:
        for key in (*_MINIMUMS, "data_fraction"):
            _check_range(key, getattr(ns, key, None), f"--{key.replace('_', '-')}")
        # a setting no flag set takes its config-file value, else its default
        config = parse_config_file(ns.config) if getattr(ns, "config", None) else {}
        for key in _CONVERTERS.keys() & vars(ns).keys():
            if getattr(ns, key) is None:
                setattr(ns, key, config.get(key, _DEFAULTS.get(key)))
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
