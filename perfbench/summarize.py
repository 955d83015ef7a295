"""Summarize benchmark records across runs.

    python3 perfbench/summarize.py [--out perfbench/BASELINE.json] [RECORD ...]

Reads the per-run records that run.py writes to perfbench/out/ (all of
them when none are named) and prints, per workload and metric, the
median and quartiles across runs and the spread: the distance between
the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``. With --out it also writes the
summary as JSON, which is how BASELINE.json was made.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def across_runs(values: list[float]) -> dict:
    out = {"runs": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict] = defaultdict(lambda: {
        "seeds": {"0": [], "1": []}, "metrics": defaultdict(list), "units": {},
        "failed": 0, "machines": set()})
    for rec in records:
        w = by_workload[rec["workload"]]
        w["why"] = rec["why"]
        w["seeds"][str(rec["trace"])].append(rec["seed"])
        w["failed"] += len(rec["failures"])
        m = rec["machine"]
        w["machines"].add(f"nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}")
        sections = ("end_to_end", "extra") if rec["trace"] == 0 else ("per_layer",)
        for section in sections:
            for name, metric in rec.get(section, {}).items():
                if metric["value"] is not None:               # None: not applicable
                    w["metrics"][f"{section}.{name}"].append(metric["value"])
                    w["units"][f"{section}.{name}"] = metric["unit"]
        if rec["trace"] == 0:
            # the same timings as measured, to show how far the machine's speed moved
            for name, stats in rec["unscaled_samples"].items():
                if stats["n"]:
                    w["metrics"][f"unscaled.{name}"].append(stats["median"])
                    w["units"][f"unscaled.{name}"] = stats["unit"]
    return {
        name: {
            "why": w["why"],
            "seeds": w["seeds"],
            "failed_operations": w["failed"],
            "machines": sorted(w["machines"]),
            "metrics": {k: {"unit": w["units"][k], **across_runs(v)}
                        for k, v in sorted(w["metrics"].items())},
        }
        for name, w in sorted(by_workload.items())
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="*", type=Path)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    paths = args.records or sorted((HERE / "out").glob("*-seed*-trace*.json"))
    if not paths:
        print("no records found; run perfbench/run.py first", file=sys.stderr)
        return 1
    records = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    summary = summarize(records)
    for name, w in summary.items():
        print(f"{name}: trace-0 seeds {w['seeds']['0']}, trace-1 seeds {w['seeds']['1']}, "
              f"failed operations {w['failed_operations']}")
        for metric, s in w["metrics"].items():
            spread = s.get("spread")
            print(f"  {metric:58s} {s['median']:12.6g} {s['unit']:7s} runs {s['runs']:2d}"
                  + (f"  spread {spread:.3f}" if spread is not None else ""))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
