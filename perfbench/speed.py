"""Machine-speed probe that scales the benchmark's timings to one reference speed.

A shared machine can run the same code up to half again as slowly for
seconds at a time, at several distinct levels, while the load average
and the steal counter stay flat. A median over a 30-second run then
depends on how much of the run fell in a slow spell. To take that out,
every timed sample is bracketed by probes: a fixed kernel that does not
touch lutnet (a bytecode loop, small-array numpy dispatch, a pass over
a few hundred kB, float-to-text formatting, roughly the mix the engine
runs). A sample that took ``raw`` seconds between probes of ``before``
and ``after`` milliseconds is reported as

    raw * REF_MS / mean(before, after)

that is, the time it would take on a machine that runs the probe in
REF_MS. A change to lutnet moves the sample and not the probe, so it
shows in full; a slow spell moves both and cancels.
"""
from __future__ import annotations

import json
import time

import numpy as np

clock = time.perf_counter

REF_MS = 0.5            # the probe's reference time; reported times are scaled to it
PROBE_REPS = 3          # kernel runs per probe; the probe is their median

_SMALL = np.linspace(1.0, 2.0, 64)
_LARGE = np.linspace(1.0, 2.0, 32_768)
_FLOATS = [float(x) for x in np.linspace(0.1, 1.7, 200)]


def _kernel() -> float:
    acc = 0
    for i in range(1_000):
        acc += i * i % 7
    a = _SMALL
    for _ in range(16):
        a = a * 1.0000001 + np.sqrt(a) * 1e-9
    b = _LARGE
    for _ in range(2):
        b = b * 1.0000001 + 1e-9
    return acc + float(a[0]) + float(b.sum()) + len(json.dumps(_FLOATS))


class Speed:
    """Runs probes and keeps every probe's time in ms."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent_s = 0.0      # wall time inside probes, for callers that must subtract it

    def probe(self) -> float:
        t_in = clock()
        times = []
        for _ in range(PROBE_REPS):
            t0 = clock()
            _kernel()
            times.append(clock() - t0)
        ms = sorted(times)[len(times) // 2] * 1e3
        self.probes.append(ms)
        self.spent_s += clock() - t_in
        return ms


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a raw time between two probes into reference time."""
    return 2.0 * REF_MS / (before_ms + after_ms)
