"""Per-iteration wall-time benchmarks with a linear cost fit.

Two phases are measured: a full training iteration (forward, backprop,
every update rule) and a forward-only iteration. Times are medians of
several repetitions, each repetition long enough to swamp timer
resolution, reported in milliseconds per iteration. Every net is built
and the inputs checked before the first timing run; then all nets, the
architectures and the optional ``r_res`` sweep, are timed in turn.
Across architectures the per-iteration cost is summarized by a
least-squares line a + b * connections.

Absolute numbers are hardware-bound; only orderings and ratios are
meaningful across machines.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Network, forward_network, init_network
from .hyper import Hyperparameters
from .train import Trainer

__all__ = [
    "BenchRow",
    "BenchReport",
    "bench_dataset",
    "time_in_turn_ms",
    "bench_iterations",
]

# each timed repetition aims for this many seconds of work
_WINDOW = 0.05


@dataclass(frozen=True)
class BenchRow:
    kind: str
    arch: tuple[int, ...]
    connections: int
    r_res: int
    phase: str                      # "train" or "forward"
    ms_per_iter: float


@dataclass
class BenchReport:
    kind: str
    rows: list[BenchRow]
    train_fit: tuple[float, float]  # (a, b) of a + b*connections ms per iteration
    forward_fit: tuple[float, float]
    rres_rows: list[BenchRow]       # r_res sweep at a fixed architecture


def bench_dataset(n_inputs: int, n_outputs: int, count: int = 64, seed: int = 0):
    """Synthetic (args, vals) pair; content is irrelevant to timing."""
    rng = np.random.default_rng(seed)
    args = rng.random((count, n_inputs)) - 0.5
    vals = np.where(rng.random((count, n_outputs)) < 0.5, -0.5, 0.5)
    return args, vals


def _median_ms(runs, reps: int) -> list[float]:
    """Median ms/iteration of each run(k), sizing k to fill the time window.

    The runs take turns within every repetition, and the one going first
    alternates, so a slow spell of the machine falls on all of them
    alike rather than on whichever happened to be timed then.
    """
    inner = []
    for run in runs:
        run(8)                                  # warm-up, also JITs caches
        t0 = time.perf_counter()
        run(8)
        probe = max((time.perf_counter() - t0) / 8, 1e-9)
        inner.append(int(min(max(_WINDOW / probe, 8), 200_000)))
    times = [[] for _ in runs]
    order = list(range(len(runs)))
    for rep in range(reps):
        for i in (order if rep % 2 == 0 else order[::-1]):
            t0 = time.perf_counter()
            runs[i](inner[i])
            times[i].append((time.perf_counter() - t0) / inner[i])
    return [float(np.median(t)) * 1000.0 for t in times]


def _train_run(net: Network, args, vals, seed: int):
    """run(k): k training iterations on a cloned net."""
    trainer = Trainer(net.clone(), np.asarray(args, float), np.asarray(vals, float), seed=seed)
    return lambda k: trainer.run(k, log_every=0)


def _forward_run(net: Network, args):
    """run(k): k forward-only iterations, one sample each."""
    rows = [np.array(row) for row in np.asarray(args, float)]
    n = len(rows)

    def run(k: int) -> None:
        for i in range(k):
            forward_network(net, rows[i % n])

    return run


def _timed_rows(cases, reps: int, seed: int) -> list[BenchRow]:
    """A train row then a forward row for each (net, args, vals) case.

    Training runs on clones; a forward-only iteration presents one
    sample. Within every repetition each net is timed once, so the ratio
    of two nets' times is not decided by a slow spell that covered only
    one of them.
    """
    train = _median_ms([_train_run(net, args, vals, seed) for net, args, vals in cases], reps)
    forward = _median_ms([_forward_run(net, args) for net, args, _ in cases], reps)
    rows = []
    for (net, _, _), t_train, t_fwd in zip(cases, train, forward):
        n = net.connection_count()
        rows.append(BenchRow(net.kind, net.sizes, n, net.hp.r_res, "train", t_train))
        rows.append(BenchRow(net.kind, net.sizes, n, net.hp.r_res, "forward", t_fwd))
    return rows


def time_in_turn_ms(nets, args, vals, reps: int = 5, seed: int = 0):
    """Median wall ms per training and per forward-only iteration of each net.

    Returns (train, forward), each a list in the order of nets, all
    timed in turn on the one dataset.
    """
    rows = _timed_rows([(net, args, vals) for net in nets], reps, seed)
    return [r.ms_per_iter for r in rows[0::2]], [r.ms_per_iter for r in rows[1::2]]


def _fit(rows: list[BenchRow], phase: str) -> tuple[float, float]:
    ns, ms = zip(*[(r.connections, r.ms_per_iter) for r in rows if r.phase == phase])
    b, a = np.polyfit(ns, ms, 1)
    return float(a), float(b)


def bench_iterations(
    archs,
    kind: str,
    hp: Hyperparameters,
    reps: int = 5,
    rres_values: tuple[int, ...] = (),
    seed: int = 0,
) -> BenchReport:
    """Time both phases across architectures and fit cost vs connections.

    ``archs`` is a sequence of layer-size tuples covering at least four
    distinct connection counts. When ``rres_values`` is given the first
    architecture is also timed at each table length, holding everything
    else fixed. Every net is built, and the counts checked, before the
    first timing run.
    """
    nets = [init_network(arch, kind, hp, np.random.default_rng(seed)) for arch in archs]
    counts = sorted({net.connection_count() for net in nets})
    if len(counts) < 4:
        raise ValueError(f"need >= 4 distinct connection counts for the fit, got {counts}")
    sweep = [init_network(nets[0].sizes, kind, hp.replace(r_res=int(r_res)),
                          np.random.default_rng(seed)) for r_res in rres_values]
    rows = _timed_rows([(net, *bench_dataset(net.sizes[0], net.sizes[-1], seed=seed))
                        for net in nets + sweep], reps, seed)
    arch_rows, rres_rows = rows[:2 * len(nets)], rows[2 * len(nets):]
    return BenchReport(kind, arch_rows, _fit(arch_rows, "train"), _fit(arch_rows, "forward"),
                       rres_rows)
