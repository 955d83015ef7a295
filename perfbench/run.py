"""Outside-in benchmark of the lutnet engine.

    python3 perfbench/run.py --workload spirals-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. One process runs one workload:
it repeats the workload's session (data, init, train, save, load,
eval, render) until --seconds are used up, then runs the correctness
checks untimed. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates traced and untraced sessions and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A fuller record
(samples, quartiles, machine, load) goes to perfbench/out/.
"""
from __future__ import annotations

import os

# one thread per process: pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SESSIONS = 2        # trace mode needs a traced and an untraced session
SETUP_REPS = 5          # set-ups timed before each session, spread over the run like the rest
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def summary(values) -> dict:
    """Sample count, quartiles, and the highest listed percentile with >= 10 samples beyond it."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return {"n": 0}
    q1, med, q3 = np.percentile(v, (25, 50, 75))
    out = {"n": int(v.size), "q1": float(q1), "median": float(med), "q3": float(q3)}
    for pct in TAIL_PERCENTILES:
        if v.size * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(v, pct))
            break
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lutnet" / "__init__.py").is_file():
        print(f"error: no lutnet sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gate
    from speed import REF_MS, Speed, scale
    from tracer import Tracer, find_targets, layer_metrics
    from workloads import WORKLOADS, derive, run_session, setup
    import lutnet
    from lutnet import core, data, evaluate, modelio, train

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    started = time.perf_counter()
    deadline = started + args.seconds

    tracer = None
    if args.trace:
        tracer = Tracer(find_targets({"core": core, "data": data, "evaluate": evaluate,
                                      "modelio": modelio, "train": train}))

    speed = Speed()
    sessions, traced, durations, setup_s, setup_raw = [], [], [], [], []
    while len(sessions) < MIN_SESSIONS or (
            time.perf_counter() + 0.5 * float(np.median(durations)) < deadline):
        k = len(sessions)
        before = speed.probe()
        for r in range(SETUP_REPS):
            raw = setup(w, derive(args.seed, 0, k, r)).seconds
            after = speed.probe()
            setup_raw.append(raw)
            setup_s.append(raw * scale(before, after))
            before = after
        seed = derive(args.seed, 1, k)
        trace_this = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        if trace_this:
            first = len(tracer)
            tracer.install()
            try:
                s = run_session(w, seed, out_dir, speed, wrap=tracer.wrap)
                s.traced = True
            finally:
                tracer.uninstall()
            traced.append((first, len(tracer), s.iterations))
        else:
            s = run_session(w, seed, out_dir, speed)
        durations.append(time.perf_counter() - t0)
        if sessions and s.failed is None:
            # keep only the newest finished nets, for the checks
            for prev in sessions:
                prev.trained = prev.loaded = prev.eval_ds = None
        sessions.append(s)
    measured_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = [s for s in sessions if not s.traced]
    last = next((s for s in reversed(sessions) if s.failed is None), None)
    checks = gate.run_checks(w, derive(args.seed, 1, 0), last, derive(args.seed, 2), ROOT,
                             out_dir)
    attempted = sum(s.attempted for s in sessions) + len(checks)
    failures = [s.failed for s in sessions if s.failed] + [m for _, m in checks if m]

    def collect(name, kind="scaled", pool=timed):
        return [x for s in pool for x in getattr(s, kind).get(name, ())]

    def quality(attr):
        return [getattr(s, attr) for s in sessions if getattr(s, attr) is not None]

    timings = {"train_it_per_s": "it/s", "train_ms_per_iter": "ms",
               "eval_samples_per_s": "rows/s", "render_pixels_per_s": "px/s",
               "save_s": "s", "load_s": "s"}
    windows = collect("train_ms_per_iter")
    samples = {"setup_s": setup_s, **{name: collect(name) for name in timings},
               "eval_mse": quality("eval_mse"), "eval_accuracy": quality("eval_accuracy")}
    stats = {name: summary(v) for name, v in samples.items()}
    unscaled = {"setup_s": {**summary(setup_raw), "unit": "s"},
                "probe_ms": {**summary(speed.probes), "unit": "ms"},
                **{name: {**summary(collect(name, "unscaled")), "unit": unit}
                   for name, unit in timings.items()}}

    def median(name):
        return stats[name].get("median")          # None where the metric does not apply

    e2e = {
        "setup_s": (median("setup_s"), "s"),
        "train_it_per_s": (median("train_it_per_s"), "it/s"),
        "train_ms_per_iter_p50": (median("train_ms_per_iter"), "ms"),
        "train_ms_per_iter_p90": (float(np.percentile(windows, 90)) if windows else None,
                                  "ms"),
        "eval_samples_per_s": (median("eval_samples_per_s"), "rows/s"),
        "save_s": (median("save_s"), "s"),
        "load_s": (median("load_s"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # printed and recorded, but not gated: absent on some workload, zero, or dependent
    # on the seed more than on the code
    extra = {
        "render_pixels_per_s": (median("render_pixels_per_s"), "px/s"),
        "eval_mse": (median("eval_mse"), "1"),
        "eval_accuracy": (median("eval_accuracy"), "1"),
        "failed_frac": (len(failures) / attempted, "1"),
    }

    record = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sessions": len(sessions), "measured_s": measured_s,
        "probe_ref_ms": REF_MS, "probe_spent_s": speed.spent_s,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "lutnet": lutnet.__version__, "kernel": platform.release(),
                    "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "samples": stats,
        "unscaled_samples": unscaled,
        "checks": {name: msg or "ok" for name, msg in checks},
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }

    if tracer is not None:
        per_layer, absent = layer_metrics(
            tracer, traced, last.trained.lut_connection_count() if last else 0)
        # unscaled, like the spans it is compared with; the overhead compares scaled
        # windows, since traced and untraced sessions ran at different times
        traced_sessions = [s for s in sessions if s.traced]
        traced_raw = collect("train_ms_per_iter", "unscaled", traced_sessions)
        traced_p50 = float(np.median(collect("train_ms_per_iter", pool=traced_sessions)))
        per_layer["trace.train_ms_per_iter_p50"] = (float(np.median(traced_raw)), "ms")
        per_layer["trace.overhead_frac"] = (traced_p50 / median("train_ms_per_iter") - 1.0, "1")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["absent"] = absent
        np.savez(out_dir / f"{w.name}.spans.npz", **tracer.arrays())
        shown = per_layer
    else:
        shown = e2e

    with open(out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {w.name} seed {args.seed}: {len(sessions)} sessions in {measured_s:.1f} s, "
          f"{len(windows)} untraced log windows, nproc {os.cpu_count()}")
    for name, (value, unit) in {**shown, **extra}.items():
        print(f"{name:48s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if tracer is not None and record["absent"]:
        print(f"# absent from this lutnet: {', '.join(record['absent'])}")
    for msg in failures:
        print(f"# FAILED: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
