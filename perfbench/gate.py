"""Correctness checks run once per benchmark run, outside the timed part.

Each check returns None when it passes or a message when it fails; a
failing check counts as one failed operation of the run.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
from lutnet import core, evaluate, modelio

from workloads import Workload, setup

REFERENCE_ITERATIONS = 10
PARITY_TOL = 1e-9
BATCH_TOL = 1e-12
BATCH_ROWS = 64


def _load_reference(root: Path):
    path = root / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("lutnet_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_parity(w: Workload, seed: int, root: Path, out_dir: Path) -> str | None:
    """The first iterations, through Trainer.run and a save/load, match the scalar reference.

    The reference is fed the trainer's sample order and gate draws,
    rebuilt from the documented streams: [seed, 1] for the gates and
    [seed, 2, epoch] for the shuffle.
    """
    try:
        ref = _load_reference(root)
    except (OSError, ImportError) as exc:
        return f"reference implementation unavailable: {exc}"
    st = setup(w, seed)
    trainer = st.trainer
    net = trainer.net
    params = ref.extract_params(net)
    k = min(REFERENCE_ITERATIONS, len(st.train_ds))
    trainer.run(k, log_every=0)
    path = out_dir / f"{w.name}.gate.json"
    modelio.save_model(path, net, trainer.iteration, {"seed": seed, "gate": trainer.gate_state()})
    settled = modelio.load_model(path).net

    order = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 2, 0]))).permutation(len(st.train_ds))
    gates = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 1]))).random((k, net.lut_connection_count()))
    for i in range(k):
        idx = order[i]
        ref.ref_iteration(params, st.train_ds.args[idx], st.train_ds.vals[idx], gates[i],
                          net.hp, net.kind)
    gap = ref.max_param_difference(params, settled)
    if not gap <= PARITY_TOL:
        return f"reference parity: max parameter gap {gap:.3g} after {k} iterations"
    return None


def saved_mse_identical(trained, loaded, eval_ds) -> str | None:
    """Save -> load -> mse is bit-identical to the in-memory mse."""
    before, after = evaluate.mse(trained, eval_ds), evaluate.mse(loaded, eval_ds)
    if before != after:
        return f"save/load changed mse: {before!r} -> {after!r}"
    return None


def batch_matches_single(net, eval_ds, seed: int) -> str | None:
    """forward_batch agrees with forward_network on a sample of eval rows."""
    rows = np.random.default_rng(seed).choice(len(eval_ds), min(BATCH_ROWS, len(eval_ds)),
                                              replace=False)
    xs = eval_ds.args[rows]
    batch = core.forward_batch(net, xs)
    single = np.array([core.forward_network(net, x)[0] for x in xs])
    gap = float(np.max(np.abs(batch - single)))
    if not gap <= BATCH_TOL:
        return f"forward_batch vs forward_network gap {gap:.3g}"
    return None


def run_checks(w: Workload, first_seed: int, last_session, gate_seed: int,
               root: Path, out_dir: Path) -> list[tuple[str, str | None]]:
    """(check name, failure message or None) for every check of a run."""
    checks = [("reference_parity", reference_parity(w, first_seed, root, out_dir))]
    if last_session is not None and last_session.loaded is not None:
        checks.append(("saved_mse_identical", saved_mse_identical(
            last_session.trained, last_session.loaded, last_session.eval_ds)))
        checks.append(("batch_matches_single", batch_matches_single(
            last_session.loaded, last_session.eval_ds, gate_seed)))
    else:
        checks.append(("trained_session", "no session completed training and reload"))
    return checks
