"""Span recorder that times calls into lutnet's modules from outside.

The engine has no timing hooks of its own, so a traced session swaps
module attributes for thin wrappers and restores them afterwards. This
works because lutnet's modules look their helpers up as module globals
at call time: replacing ``lutnet.train.forward_network`` is seen by
``_apply_iteration`` on its next call.

Each call becomes one span (name, start, end, parent) appended to flat
arrays in memory; the arrays are written out at exit. A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import inspect
import os
import time
from array import array

import numpy as np

PACKAGE = "lutnet"


def span_name(fn) -> str:
    """'<module>.<qualname>' with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


# Per-layer groups: metric prefix -> span names summed into it.
GROUPS = {
    "data.gen": ("data.gen_two_spirals", "data.gen_md2", "data.md2_value"),
    "core.init_network": ("core.init_network",),
    "core.forward_network": ("core.forward_network",),
    "core.segment_coords": ("core.segment_coords",),
    "core.find_nonfinite": ("core.find_nonfinite",),
    "core.forward_batch": ("core.forward_batch",),
    "train.run": ("train.Trainer.run",),
    "train.iteration": ("train._apply_iteration",),
    "train.backprop": ("train.backprop",),
    "train.lut_entry_updates": ("train._lut_entry_updates",),
    "regularize.gain_decay": ("regularize._gain_decay",),
    "regularize.visit_update": ("regularize._update_visits_tensor",),
    "regularize.diffusion": ("regularize._visit_ratios", "regularize._pair_core",
                             "regularize._assemble_pairs"),
    "evaluate.mse": ("evaluate.mse",),
    "evaluate.accuracy": ("evaluate.accuracy",),
    "evaluate.render_surface": ("evaluate.render_surface",),
    "evaluate.write_pgm": ("evaluate.write_pgm",),
    "modelio.save_model": ("modelio.save_model",),
    "modelio.load_model": ("modelio.load_model",),
}

# Groups that run once or more per training iteration, inside Trainer.run.
LOOP_GROUPS = ("train.run", "train.iteration", "train.backprop", "train.lut_entry_updates",
               "core.forward_network", "core.segment_coords", "core.find_nonfinite",
               "regularize.gain_decay", "regularize.visit_update", "regularize.diffusion")

# Work counts read from a call's arguments, once the call has returned.
COUNTERS = {
    "regularize._update_visits_tensor": lambda args: args[0].size,
    "regularize._visit_ratios": lambda args: args[0].size // args[0].shape[-1],
    "core.forward_batch": lambda args: len(args[1]),
    "evaluate.write_pgm": lambda args: os.path.getsize(args[1]),
    "modelio.save_model": lambda args: os.path.getsize(args[0]),
    "modelio.load_model": lambda args: os.path.getsize(args[0]),
}


def find_targets(modules: dict) -> list[tuple[object, str, object]]:
    """(owner, attribute, function) for every callable a traced session wraps.

    Names are found by their ``__module__``, so a helper that a later
    change removes or renames simply drops out of the list.
    """
    core, train = modules["core"], modules["train"]
    targets = []

    def add_imported(owner, sources):
        for attr, obj in vars(owner).items():
            if inspect.isfunction(obj) and obj.__module__ in sources:
                targets.append((owner, attr, obj))

    add_imported(train, {f"{PACKAGE}.core", f"{PACKAGE}.regularize"})
    for attr in ("_apply_iteration", "backprop", "_lut_entry_updates"):
        obj = vars(train).get(attr)
        if inspect.isfunction(obj):
            targets.append((train, attr, obj))
    trainer_cls = vars(train).get("Trainer")
    if trainer_cls is not None and inspect.isfunction(vars(trainer_cls).get("run")):
        targets.append((trainer_cls, "run", vars(trainer_cls)["run"]))
    add_imported(modules["evaluate"], {f"{PACKAGE}.core"})
    for mod in (modules["data"], modules["evaluate"], modules["modelio"]):
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets.append((mod, attr, obj))
    if inspect.isfunction(vars(core).get("init_network")):
        targets.append((core, "init_network", core.init_network))
    return targets


class Tracer:
    """Records spans of wrapped calls; install() and uninstall() bracket a session."""

    def __init__(self, targets):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]
        self._targets = targets
        self._wrappers = [self.wrap(fn, span_name(fn)) for _, _, fn in targets]
        self.wrapped = {span_name(fn) for _, _, fn in targets}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A function that records a span around each call of fn."""
        nid = self._intern(name)
        count = COUNTERS.get(name)
        names, parents, starts, ends, amounts = (
            self.name_id, self.parent, self.start, self.end, self.amount)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                amounts[idx] = count(args)
            return result

        return traced

    def install(self) -> None:
        for (owner, attr, _), wrapper in zip(self._targets, self._wrappers):
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._targets):
            setattr(owner, attr, fn)

    def __len__(self) -> int:
        return len(self.name_id)

    def arrays(self) -> dict:
        # copies, so that no numpy view pins the growable buffers
        return {
            "names": np.asarray(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "amount": np.frombuffer(self.amount).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered


def layer_metrics(tracer: Tracer, sessions: list[tuple[int, int, int]],
                  lut_connections: int) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced sessions, and the groups found absent.

    sessions holds (first span, end span, iterations) per traced session.
    Per-iteration figures divide totals over all traced sessions by
    their iterations; ``self_s``, ``calls`` and ``bytes`` are per-session
    totals, median over the traced sessions.
    """
    a = tracer.arrays()
    self_t = tracer.self_times()
    ids = {name: i for i, name in enumerate(tracer.names)}
    iterations = sum(s[2] for s in sessions)
    # the spans of each session are contiguous, so a mask per session suffices
    in_session = np.zeros(len(self_t), dtype=bool)
    for lo, hi, _ in sessions:
        in_session[lo:hi] = True

    out = {}
    absent = []

    def group_mask(group):
        members = [ids[n] for n in GROUPS[group] if n in ids]
        return np.isin(a["name_id"], members) & in_session

    def per_session(values, mask):
        return float(np.median([values[lo:hi][mask[lo:hi]].sum() for lo, hi, _ in sessions]))

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for group, members in GROUPS.items():
        if not any(m in tracer.wrapped for m in members):
            absent.append(group)
    for group in LOOP_GROUPS:
        mask = group_mask(group)
        put(f"{group}.self_ms_per_iter", self_t[mask].sum() * 1e3 / iterations, "ms")
    for group in ("data.gen", "core.init_network", "core.find_nonfinite", "core.forward_batch",
                  "evaluate.mse", "evaluate.accuracy", "evaluate.render_surface",
                  "evaluate.write_pgm", "modelio.save_model", "modelio.load_model"):
        put(f"{group}.self_s", per_session(self_t, group_mask(group)), "s")
    for group in ("evaluate.write_pgm", "modelio.save_model", "modelio.load_model"):
        put(f"{group}.bytes", per_session(a["amount"], group_mask(group)), "B")
    put("modelio.save_model.calls",
        per_session(np.ones(len(self_t)), group_mask("modelio.save_model")), "count")

    fb = group_mask("core.forward_batch")
    fb_s = self_t[fb].sum()
    put("core.forward_batch.rows_per_s", a["amount"][fb].sum() / fb_s if fb_s > 0 else 0.0,
        "rows/s")
    put("regularize.gain_decay.calls_per_iter",
        group_mask("regularize.gain_decay").sum() / iterations, "count")
    put("regularize.visit_update.entries_per_iter",
        a["amount"][group_mask("regularize.visit_update")].sum() / iterations, "count")
    rows = a["amount"][group_mask("regularize.diffusion")].sum()
    put("regularize.diffusion.rows_per_iter", rows / iterations, "count")
    put("regularize.diffusion.gate_hit_ratio",
        rows / (iterations * lut_connections) if lut_connections else 0.0, "ratio")
    put("trace.self_ms_per_iter_sum",
        sum(out[f"{g}.self_ms_per_iter"][0] for g in LOOP_GROUPS), "ms")
    return out, absent
