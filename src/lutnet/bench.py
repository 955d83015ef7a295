"""Per-iteration wall-time benchmarks with a linear cost fit.

Two phases are measured: a full training iteration (forward, backprop,
every update rule) and a forward-only iteration. Times are medians of
several repetitions, each repetition long enough to swamp timer
resolution, reported in milliseconds per iteration. Across architectures
the per-iteration cost is summarized by a least-squares line
a + b * connections.

Absolute numbers are hardware-bound; only orderings and ratios are
meaningful across machines.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Network, forward_network, init_network
from .hyper import Hyperparameters, KINDS, default_hyperparameters
from .train import Trainer

__all__ = [
    "BenchFit",
    "BenchRow",
    "BenchReport",
    "bench_dataset",
    "time_in_turn_ms",
    "bench_iterations",
]

# each timed repetition aims for this many seconds of work
_WINDOW = 0.05


@dataclass(frozen=True)
class BenchFit:
    """Linear model a + b*n of per-iteration milliseconds vs connections."""

    a: float
    b: float


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
    train_fit: BenchFit
    forward_fit: BenchFit
    rres_rows: list[BenchRow]       # r_res sweep at a fixed architecture

    def csv_rows(self) -> list[tuple]:
        out = []
        for r in self.rows + self.rres_rows:
            arch = "-".join(str(s) for s in r.arch)
            out.append((r.kind, arch, r.connections, r.r_res, r.phase, r.ms_per_iter))
        return out


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


def time_in_turn_ms(nets, args, vals, reps: int = 5, seed: int = 0):
    """Median wall ms per training and per forward-only iteration of each net.

    Returns (train, forward), each a list in the order of nets. Training
    runs on clones; a forward-only iteration presents one sample. Within
    every repetition each net is timed once, so the ratio of two nets'
    times is not decided by a slow spell that covered only one of them.
    """
    train = _median_ms([_train_run(net, args, vals, seed) for net in nets], reps)
    forward = _median_ms([_forward_run(net, args) for net in nets], reps)
    return train, forward


def bench_iterations(
    archs,
    kind: str,
    hp: Hyperparameters | None = None,
    reps: int = 5,
    rres_values: tuple[int, ...] = (),
    seed: int = 0,
) -> BenchReport:
    """Time both phases across architectures and fit cost vs connections.

    ``archs`` is a sequence of layer-size tuples covering at least four
    distinct connection counts. When ``rres_values`` is given the first
    architecture is re-timed at each table length, holding everything
    else fixed.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if hp is None:
        hp = default_hyperparameters(kind)
    archs = [tuple(int(s) for s in a) for a in archs]

    rows: list[BenchRow] = []
    counts: set[int] = set()
    ns, train_ms, fwd_ms = [], [], []
    for arch in archs:
        net = init_network(arch, kind, hp, np.random.default_rng(seed))
        args, vals = bench_dataset(arch[0], arch[-1], seed=seed)
        (t_train,), (t_fwd,) = time_in_turn_ms([net], args, vals, reps=reps, seed=seed)
        n = net.connection_count()
        counts.add(n)
        ns.append(n)
        train_ms.append(t_train)
        fwd_ms.append(t_fwd)
        rows.append(BenchRow(kind, arch, n, hp.r_res, "train", t_train))
        rows.append(BenchRow(kind, arch, n, hp.r_res, "forward", t_fwd))
    if len(counts) < 4:
        raise ValueError(
            f"need >= 4 distinct connection counts for the fit, got {sorted(counts)}"
        )

    train_b, train_a = np.polyfit(ns, train_ms, 1)
    fwd_b, fwd_a = np.polyfit(ns, fwd_ms, 1)

    # the sweep's nets take turns, so a slow spell cannot skew one r_res against another
    sweep_arch = archs[0]
    args, vals = bench_dataset(sweep_arch[0], sweep_arch[-1], seed=seed)
    nets = [init_network(sweep_arch, kind, hp.replace(r_res=int(r_res)),
                         np.random.default_rng(seed)) for r_res in rres_values]
    sweep_train, sweep_fwd = time_in_turn_ms(nets, args, vals, reps=reps, seed=seed)
    rres_rows: list[BenchRow] = []
    for net, t_train, t_fwd in zip(nets, sweep_train, sweep_fwd):
        n, r_res = net.connection_count(), net.hp.r_res
        rres_rows.append(BenchRow(kind, sweep_arch, n, r_res, "train", t_train))
        rres_rows.append(BenchRow(kind, sweep_arch, n, r_res, "forward", t_fwd))

    return BenchReport(
        kind=kind,
        rows=rows,
        train_fit=BenchFit(float(train_a), float(train_b)),
        forward_fit=BenchFit(float(fwd_a), float(fwd_b)),
        rres_rows=rres_rows,
    )
