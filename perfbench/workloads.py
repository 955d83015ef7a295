"""The benchmark's workloads and the session each one repeats.

A session is what a user does with the CLI, in the same order of
library calls: generate data, ``init_network``, ``Trainer.run`` with
log and checkpoint callbacks, ``save_model``, ``load_model``, ``mse``
(and ``accuracy`` on labelled sets), and for 2-input nets
``render_surface`` + ``write_pgm``. Every call into lutnet goes through
a module attribute looked up at call time, so a traced session sees
the tracer's wrappers.

All workloads are a closed loop: one sample per iteration, each
iteration waiting for the one before.

Every timing is bracketed by speed probes and kept both as measured
and scaled to the reference speed (see speed.py).
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from lutnet import core, data, evaluate, hyper, modelio, train
from speed import REF_MS, Speed, scale

clock = time.perf_counter


def derive(*keys: int) -> int:
    """A 32-bit seed derived from the benchmark seed and stream keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple[int, ...]
    kind: str
    hp_changes: dict
    iterations: int
    log_every: int
    checkpoint_every: int | None = None
    test_every_logs: int | None = None     # score the eval set at every n-th log point
    render: int | None = None              # surface resolution, 2-input nets only
    eval_passes: int = 1                   # eval-set passes after training
    passes_per_sample: int = 1             # eval passes timed together between two probes
    save_repeats: int = 1                  # timed saves of the final model
    load_repeats: int = 1                  # timed loads of that file
    # The speed probe follows the interpreter. Eval passes over spirals' 194 rows are
    # interpreter-bound and follow it; md2's 20k rows go through 4096-row numpy
    # batches that a slow spell hardly touches, so scaling them would add the probe's
    # swing instead of removing one (spread between ten runs: 0.06 unscaled, 0.12 scaled).
    scale_eval: bool = True

    def make_data(self, seed: int):
        """(train set, eval set) for one session."""
        if self.name.startswith("spirals"):
            ds = data.gen_two_spirals()
            return ds, ds
        return (data.gen_md2(100_000, seed=derive(seed, 1)),
                data.gen_md2(20_000, seed=derive(seed, 2)))

    def hyperparameters(self):
        return hyper.default_hyperparameters(self.kind).replace(**self.hp_changes)


WORKLOADS = {w.name: w for w in (
    Workload(
        "spirals-small",
        "README quick start: NLW 2-8-1, r_res 64, spirals, 64x64 render. 16 tiny LUT rows, "
        "so numpy dispatch sets the cost; core.forward_network and train.iteration self "
        "time dominate",
        (2, 8, 1), hyper.KIND_NLW, {}, iterations=2000, log_every=100,
        render=64, eval_passes=100, passes_per_sample=10, save_repeats=3, load_repeats=3),
    # The render is 64x64, one 4096-row forward_batch chunk: 256x256 runs the same chunks
    # sixteen times over, and the shorter session leaves room for more sessions per run.
    Workload(
        "spirals-wide-r256",
        "NLW 2-32-32-1 at r_res 256, mid-run checkpoint, 64x64 render: table-size bound; "
        "regularize.visit_update and regularize.diffusion dominate an iteration, save_model "
        "the checkpoint",
        (2, 32, 32, 1), hyper.KIND_NLW, {"r_res": 256}, iterations=600, log_every=10,
        checkpoint_every=300, render=64, eval_passes=40, passes_per_sample=2,
        save_repeats=2, load_repeats=2),
    Workload(
        "md2-lw",
        "LW 5-32-32-1 on md2, 20k test set scored every tenth log point: no LUT, visit or "
        "diffusion call, so LUT-side changes should leave it flat; forward_batch carries the "
        "evaluations",
        (5, 32, 32, 1), hyper.KIND_LW, {}, iterations=20_000, log_every=200,
        test_every_logs=10, eval_passes=4, save_repeats=5, load_repeats=5, scale_eval=False),
)}


@dataclass
class Setup:
    train_ds: object
    eval_ds: object
    trainer: object
    seconds: float


def setup(w: Workload, seed: int) -> Setup:
    """Data generation + init_network + Trainer, timed up to the first iteration."""
    t0 = clock()
    train_ds, eval_ds = w.make_data(seed)
    net = core.init_network(w.sizes, w.kind, w.hyperparameters(),
                            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0]))))
    trainer = train.Trainer(net, train_ds.args, train_ds.vals, seed=seed)
    return Setup(train_ds, eval_ds, trainer, clock() - t0)


@dataclass
class Session:
    """Timings and outputs of one session; ``failed`` names the step that raised.

    ``scaled`` holds each timing's samples at reference speed, ``unscaled``
    the same samples as measured, both by metric name; rates (it/s,
    rows/s, px/s) are stored as rates.
    """

    attempted: int = 0
    failed: str | None = None
    scaled: dict = field(default_factory=lambda: defaultdict(list))
    unscaled: dict = field(default_factory=lambda: defaultdict(list))
    eval_mse: float | None = None
    eval_accuracy: float | None = None
    trained: object = None
    loaded: object = None
    eval_ds: object = None
    iterations: int = 0
    traced: bool = False

    def add_time(self, name: str, raw: float, factor: float) -> None:
        self.unscaled[name].append(raw)
        self.scaled[name].append(raw * factor)

    def add_rate(self, name: str, count: float, raw_s: float, factor: float) -> None:
        self.unscaled[name].append(count / raw_s)
        self.scaled[name].append(count / (raw_s * factor))


def run_session(w: Workload, seed: int, out_dir, speed: Speed, wrap=None) -> Session:
    """One full session; wrap(fn, name), when given, turns the callbacks into spans."""
    st = setup(w, seed)
    trainer, eval_ds = st.trainer, st.eval_ds
    s = Session(eval_ds=eval_ds, trained=trainer.net)
    model_path = out_dir / f"{w.name}.model.json"

    def rng_state(tr):
        return {"seed": seed, "gate": tr.gate_state()}

    def timed(step):
        """(seconds, scale factor) of step(), run between two probes."""
        before = speed.probe()
        t0 = clock()
        step()
        raw = clock() - t0
        return raw, scale(before, speed.probe())

    def save(tr):
        s.add_time("save_s", *timed(lambda: modelio.save_model(model_path, tr.net, tr.iteration,
                                                               rng_state(tr))))

    # window timing: wall time between log points, callback bodies excluded;
    # each log point probes the speed, so every window lies between two probes
    mark = {"t": 0.0, "it": 0, "callbacks": 0.0, "logs": 0, "probe": 0.0}

    def on_log(tr, window_mse):
        t_in = clock()
        raw_ms = (t_in - mark["t"] - mark["callbacks"]) * 1e3 / (tr.iteration - mark["it"])
        after = speed.probe()
        s.add_time("train_ms_per_iter", raw_ms, scale(mark["probe"], after))
        mark["probe"] = after
        mark["logs"] += 1
        if w.test_every_logs and mark["logs"] % w.test_every_logs == 0:
            evaluate.mse(tr.net, eval_ds)
        mark["it"], mark["callbacks"] = tr.iteration, 0.0
        mark["t"] = clock()

    def on_checkpoint(tr):
        t_in = clock()
        save(tr)
        mark["callbacks"] += clock() - t_in

    if wrap is not None:
        on_log = wrap(on_log, "bench.on_log")
        on_checkpoint = wrap(on_checkpoint, "bench.on_checkpoint")

    s.attempted += 1
    first_probe = len(speed.probes)
    mark["probe"] = speed.probe()
    spent_before = speed.spent_s
    mark["t"] = t0 = clock()
    try:
        trainer.run(w.iterations, log_every=w.log_every, on_log=on_log,
                    checkpoint_every=w.checkpoint_every, on_checkpoint=on_checkpoint)
    except train.TrainingDiverged as exc:
        s.failed = f"train: {exc}"
        return s
    # the whole run, callbacks included and probes left out, at the run's mean speed
    raw = clock() - t0 - (speed.spent_s - spent_before)
    speed.probe()
    mean_probe = float(np.mean(speed.probes[first_probe:]))
    s.add_rate("train_it_per_s", w.iterations, raw, REF_MS / mean_probe)
    s.iterations = w.iterations

    for _ in range(w.save_repeats):
        s.attempted += 1
        save(trainer)

    loaded = []
    for _ in range(w.load_repeats):
        s.attempted += 1
        try:
            s.add_time("load_s", *timed(lambda: loaded.append(modelio.load_model(model_path))))
        except ValueError as exc:
            s.failed = f"load: {exc}"
            return s
    s.loaded = loaded[-1].net

    def eval_passes():
        for _ in range(w.passes_per_sample):
            s.eval_mse = evaluate.mse(s.loaded, eval_ds)
            if eval_ds.classes is not None:
                s.eval_accuracy = evaluate.accuracy(s.loaded, eval_ds)

    s.attempted += 1
    for _ in range(w.eval_passes // w.passes_per_sample):
        raw, factor = timed(eval_passes)
        s.add_rate("eval_samples_per_s", w.passes_per_sample * len(eval_ds), raw,
                   factor if w.scale_eval else 1.0)

    if w.render:
        s.attempted += 1

        def render():
            img = evaluate.render_surface(s.loaded, w.render)
            evaluate.write_pgm(img, out_dir / f"{w.name}.surface.pgm")

        try:
            s.add_rate("render_pixels_per_s", w.render * w.render, *timed(render))
        except ValueError as exc:
            s.failed = f"render: {exc}"
            return s
    return s
