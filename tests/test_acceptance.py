"""Acceptance suite: one test and one summary line per criterion.

The empirical criteria (4 through 8) run full training protocols and
together take around ten minutes; everything is seeded, so reruns are
bit-identical.
"""
import os
import sys
import time

import numpy as np
import pytest

import lutnet
from conftest import CRITERION_LINES, iterate
from lutnet import kernel
from lutnet.cli import main as cli_main
from lutnet.core import (
    LutConnection,
    forward_network,
    init_network,
    interpolate,
    segment_coords,
)
from lutnet.data import (
    CsvSchema,
    complement,
    gen_circle,
    gen_md2,
    gen_two_spirals,
    load_csv,
    scale_args,
    split,
)
from lutnet.evaluate import accuracy, mse
from lutnet.hyper import Hyperparameters, default_hyperparameters
from lutnet.bench import bench_dataset, time_in_turn_ms
from lutnet.regularize import diffusion_pair, gain_decay
from lutnet.train import Trainer, backprop, update_lut_component


NLW = default_hyperparameters("NLW")
LW = default_hyperparameters("LW")


def _seeded(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    CRITERION_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_update_exactness():
    """Interpolated LUT change equals the raw step, 10k triples, 1e-10."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    vis = np.full(NLW.r_res, NLW.v_p)
    for _ in range(10_000):
        conn = LutConnection(linear=0.0,
                             lut=rng.normal(scale=rng.uniform(0.1, 3.0),
                                            size=NLW.r_res),
                             visits=vis)
        x = float(rng.uniform(-1.2, 1.2))        # includes clamped inputs
        e = float(rng.normal(scale=2.0))
        before = interpolate(conn.lut, x, NLW)
        step = -gain_decay(before, NLW.mu * e, NLW)
        update_lut_component(conn, e, x, NLW, gate=False)
        after = interpolate(conn.lut, x, NLW)
        worst = max(worst, abs((after - before) - step))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-10,
            f"update exactness, max deviation {worst:.3e} "
            f"(tolerance 1e-10) in {elapsed:.2f}s")


def test_criterion_2_diffusion_properties():
    """Pair mean, gap contraction, sign, and visit-direction asymmetry."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_mean = 0.0
    contract_ok = sign_ok = asym_ok = True
    for _ in range(10_000):
        a, b = rng.normal(scale=2.0, size=2)
        va, vb = rng.uniform(1e-16, 1.0, size=2)

        low, high = diffusion_pair(a, b, va, vb,
                                   Hyperparameters(r_b=0.0, r_a=1e-4))
        worst_mean = max(worst_mean, abs((low + high) / 2 - (a + b) / 2))

        hp = Hyperparameters(r_a=float(rng.uniform(0, 0.01)),
                             r_b=float(rng.uniform(0, 1.0)))
        low, high = diffusion_pair(a, b, va, vb, hp)
        contract_ok &= abs(high - low) <= abs(b - a) + 1e-15
        lo, hi = min(a, b), max(a, b)
        sign_ok &= (lo - 1e-12 <= low <= hi + 1e-12
                    and lo - 1e-12 <= high <= hi + 1e-12)

        if abs(b - a) > 1e-6:
            hp = Hyperparameters(r_a=1e-4, r_b=1e-4)
            low, high = diffusion_pair(a, b, 0.9, 1e-12, hp)
            asym_ok &= abs(high - b) > abs(low - a)
            low, high = diffusion_pair(a, b, 1e-12, 0.9, hp)
            asym_ok &= abs(low - a) > abs(high - b)
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-12 and contract_ok and sign_ok and asym_ok
    _report(2, ok,
            f"diffusion properties, pair-mean deviation {worst_mean:.3e} "
            f"(tolerance 1e-12), contraction {contract_ok}, sign {sign_ok}, "
            f"asymmetry {asym_ok} in {elapsed:.2f}s")


def _loss(net, x, target):
    y, _ = forward_network(net, x)
    return 0.5 * float(np.sum((y - target) ** 2))


def test_criterion_3_gradient_checks():
    """LW finite differences under 1e-4; LUT affine gradient under 1e-6."""
    start = time.perf_counter()
    net = init_network((2, 4, 1), "LW", LW, _seeded([303, 0]))
    rng = np.random.default_rng(303)
    h = 1e-6
    worst_lw = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 2)
        target = rng.uniform(-0.9, 0.9, 1)
        _, trace = forward_network(net, x)
        deltas = backprop(net, trace, target)
        acts = [trace.inputs] + [lt.activations for lt in trace.layers]
        for li, lay in enumerate(net.layers):
            for d in range(lay.n_out):
                for s in range(lay.n_in):
                    keep = lay.w[d, s]
                    lay.w[d, s] = keep + h
                    up = _loss(net, x, target)
                    lay.w[d, s] = keep - h
                    dn = _loss(net, x, target)
                    lay.w[d, s] = keep
                    numeric = (up - dn) / (2 * h)
                    if abs(numeric) > 1e-8:
                        grad = deltas[li][d] * acts[li][s]
                        worst_lw = max(worst_lw, abs(grad - numeric) / abs(numeric))

    lut_net = init_network((2, 1), "NLW", NLW, _seeded([304, 0]))
    h = 1e-5
    worst_lut = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 2)
        target = rng.uniform(-0.9, 0.9, 1)
        _, trace = forward_network(lut_net, x)
        deltas = backprop(lut_net, trace, target)
        lay = lut_net.layers[0]
        for s in range(2):
            lo, frac = segment_coords(float(x[s]), NLW)
            for j, share in ((int(lo), 1.0 - frac), (int(lo) + 1, frac)):
                keep = lay.lut[0, s, j]
                lay.lut[0, s, j] = keep + h
                up = _loss(lut_net, x, target)
                lay.lut[0, s, j] = keep - h
                dn = _loss(lut_net, x, target)
                lay.lut[0, s, j] = keep
                numeric = (up - dn) / (2 * h)
                if abs(numeric) > 1e-8:
                    grad = deltas[0][0] * share
                    worst_lut = max(worst_lut, abs(grad - numeric) / abs(numeric))
    elapsed = time.perf_counter() - start
    ok = worst_lw < 1e-4 and worst_lut < 1e-6
    _report(3, ok,
            f"gradients, LW rel err {worst_lw:.3e} (tolerance 1e-4), "
            f"LUT rel err {worst_lut:.3e} (tolerance 1e-6) in {elapsed:.2f}s")


def test_criterion_9_determinism_and_resume(tmp_path):
    """Same seed gives identical files; resume equals uninterrupted run."""
    start = time.perf_counter()
    base = ["train", "--data", "spirals", "--arch", "2-8-1", "--kind", "NLW",
            "--r-res", "16", "--seed", "11"]
    twice = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert cli_main(base + ["--iterations", "400", "--out", str(out)]) == 0
        twice.append(out.read_bytes())
    deterministic = twice[0] == twice[1]

    whole = tmp_path / "whole.json"
    pieces = tmp_path / "pieces.json"
    assert cli_main(base + ["--iterations", "600", "--out", str(whole)]) == 0
    assert cli_main(base + ["--iterations", "300", "--out", str(pieces)]) == 0
    assert cli_main(["train", "--resume", str(pieces), "--data", "spirals",
                     "--iterations", "300", "--out", str(pieces)]) == 0
    resumed = whole.read_bytes() == pieces.read_bytes()
    elapsed = time.perf_counter() - start
    _report(9, deterministic and resumed,
            f"determinism {deterministic}, bit-exact resume {resumed} "
            f"in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_4_selective_parameter_scaling():
    """Training cost ratio r256/r16 under 2; forward ratio in [0.8, 1.3]."""
    start = time.perf_counter()
    args, vals = bench_dataset(5, 1, count=64, seed=0)
    nets = [init_network((5, 16, 16, 1), "NLW", NLW.replace(r_res=r_res), _seeded([404, 0]))
            for r_res in (16, 256)]
    # r16 and r256 take turns rep by rep, so one slow spell cannot decide the ratio
    (train16, train256), (fwd16, fwd256) = time_in_turn_ms(nets, args, vals, reps=15, seed=0)
    train_ratio = train256 / train16
    fwd_ratio = fwd256 / fwd16
    elapsed = time.perf_counter() - start
    ok = train_ratio < 2.0 and 0.8 <= fwd_ratio <= 1.3
    _report(4, ok,
            f"r256/r16 train ratio {train_ratio:.3f} (< 2.0; "
            f"{train256:.4f}/{train16:.4f} ms/iter), "
            f"forward ratio {fwd_ratio:.3f} (within [0.8, 1.3]; "
            f"{fwd256:.4f}/{fwd16:.4f} ms/iter) "
            f"in {elapsed:.1f}s")


@pytest.mark.parametrize("numpy_path", [False, True], ids=["selected-read", "numpy-read"])
def test_iteration_table_writes_do_not_depend_on_r_res(numpy_only, numpy_path):
    """Criterion 4's claim, exact: an iteration changes at most two LUT and two visit
    entries of an ungated connection, adjacent ones, and r_res of a gated row."""
    numpy_only.force(numpy_path)
    args, vals = bench_dataset(5, 1, count=64, seed=0)
    for r_res in (16, 64, 256):
        net = init_network((5, 16, 16, 1), "NLW", NLW.replace(r_res=r_res), _seeded([404, 0]))
        gates = _seeded([406, r_res])
        ungated_changes = 0
        for it in range(12):
            gate_u = gates.random(net.lut_connection_count())
            gated = NLW.zeta > gate_u
            before = net.luts.copy(), net.visits.copy()
            iterate(net, args[it], vals[it], gate_u)
            for table, old in zip((net.luts, net.visits), before):
                changed = table != old
                per_row = changed.sum(axis=1)
                assert (per_row[~gated] <= 2).all(), (r_res, it, per_row[~gated].max())
                pairs = changed[~gated][per_row[~gated] == 2]
                assert (np.diff(np.argwhere(pairs)[:, 1])[::2] == 1).all()
                assert per_row.sum() <= 2 * (~gated).sum() + r_res * gated.sum()
                ungated_changes += per_row[~gated].sum()
        assert ungated_changes > 0
        numpy_only.check(net)


def _lutnet_opcodes(run) -> int:
    """How many bytecode instructions run() executes in lutnet's own frames."""
    package = os.path.dirname(lutnet.__file__) + os.sep
    count = 0

    def count_opcodes(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return count_opcodes

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return count_opcodes

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("numpy_path", [False, True], ids=["selected-read", "numpy-read"])
def test_iteration_dispatch_count_does_not_depend_on_r_res(numpy_only, numpy_path):
    """Criterion 4's claim, exact: an iteration runs the same Python at any r_res."""
    numpy_only.force(numpy_path)
    args, vals = bench_dataset(2, 1, count=16, seed=0)
    counts = []
    for r_res in (16, 64, 256):
        net = init_network((2, 8, 1), "NLW", NLW.replace(r_res=r_res, zeta=0.2), _seeded([405, 0]))
        trainer = Trainer(net, args, vals, seed=1)
        trainer.run(5, log_every=0)         # loads the kernel and builds the update maps
        counts.append(_lutnet_opcodes(lambda: trainer.run(20, log_every=10)))
        # the fused updates call where the kernel loads, numpy's updates otherwise
        numpy_only.check(net)
        assert (net._workspace.updates is None) == (kernel.load() is None)
    assert counts[0] > 0
    assert counts == counts[:1] * 3, counts


# ---------------------------------------------------------------------------
# Iris-format harness (criterion 8)

SPECIES = {
    "silka": (5.0, 3.4, 1.5, 0.2),
    "trevi": (5.9, 2.8, 4.3, 1.3),
    "verda": (6.6, 3.0, 5.6, 2.0),
}


def _write_species_csv(path) -> None:
    rng = np.random.default_rng(415926)
    lines = []
    for name, mean in SPECIES.items():
        vals = np.maximum(np.round(rng.normal(mean, 0.3, (50, 4)), 1), 0.1)
        for row in vals:
            lines.append(",".join(f"{v:.1f}" for v in row) + f",{name}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.slow
def test_criterion_8_small_set_harness(tmp_path):
    """Mean test accuracy over 10 random 80/20 splits reaches 0.90."""
    start = time.perf_counter()
    csv_path = tmp_path / "species.csv"
    _write_species_csv(csv_path)
    ds = load_csv(csv_path, CsvSchema(arg_columns=(0, 1, 2, 3), class_column=4))
    assert len(ds) == 150 and len(ds.classes) == 3
    hp = NLW.replace(r_res=16, r_b=0.02)
    accs = []
    for seed in range(10):
        train_raw, test_raw = split(ds, 0.8, seed=seed)
        train = scale_args(train_raw)
        test = scale_args(test_raw, train.provenance["scale"])
        net = init_network((4, 4, 3), "NLW", hp, _seeded([seed, 0]))
        Trainer(net, train.args, train.vals, seed=seed).run(10_000, log_every=0)
        accs.append(accuracy(net, test))
    mean_acc = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    _report(8, mean_acc >= 0.90,
            f"species CSV mean test accuracy {mean_acc:.4f} "
            f"(threshold 0.90; per-split {['%.2f' % a for a in accs]}) "
            f"in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_circle_ablation():
    """Diffusion lowers held-out MSE in at least 4 of 5 seeds."""
    start = time.perf_counter()
    wins = []
    margins = []
    for seed in range(5):
        train_ds, full = gen_circle(64, sampling_seed=seed)
        held = complement(full, train_ds)
        held_mse = {}
        for label, hp in (("on", NLW), ("off", NLW.replace(r_a=0.0, r_b=0.0))):
            net = init_network((2, 1), "NLW", hp, _seeded([seed, 0]))
            Trainer(net, train_ds.args, train_ds.vals, seed=seed).run(
                100_000, log_every=0)
            held_mse[label] = mse(net, held)
        wins.append(held_mse["on"] < held_mse["off"])
        margins.append(held_mse["off"] - held_mse["on"])
    elapsed = time.perf_counter() - start
    n_wins = sum(wins)
    _report(5, n_wins >= 4,
            f"diffusion lowered held-out MSE in {n_wins}/5 seeds "
            f"(need 4; margins {['%.1e' % m for m in margins]}) "
            f"in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_md2_comparison():
    """NLW 5-16-16-1 beats LW 5-32-32-1 on held-out md2 MSE."""
    start = time.perf_counter()
    train_ds = gen_md2(100_000, seed=0)
    test_ds = gen_md2(20_000, seed=1)
    test_mse = {}
    for kind, arch, hp in (("NLW", (5, 16, 16, 1), NLW.replace(r_res=16)),
                           ("LW", (5, 32, 32, 1), LW)):
        net = init_network(arch, kind, hp, _seeded([0, 0]))
        Trainer(net, train_ds.args, train_ds.vals, seed=0).run(
            200_000, log_every=0)
        test_mse[kind] = mse(net, test_ds)
    ratio = test_mse["NLW"] / test_mse["LW"]
    elapsed = time.perf_counter() - start
    _report(7, ratio < 1.0,
            f"md2 test MSE ratio NLW/LW {ratio:.4f} (< 1.0 required; "
            f"NLW {test_mse['NLW']:.3e}, LW {test_mse['LW']:.3e}) "
            f"in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_two_spirals():
    """NLW separates the spirals on 2 of 3 seeds; LW never does."""
    start = time.perf_counter()
    ds = gen_two_spirals()
    budget = 1_000_000
    results = {}
    for kind, hp in (("NLW", NLW.replace(r_res=16, r_b=0.01)), ("LW", LW)):
        per_seed = []
        for seed in range(3):
            net = init_network((2, 32, 32, 1), kind, hp, _seeded([seed, 0]))
            tr = Trainer(net, ds.args, ds.vals, seed=seed)
            best = 0.0

            def hit(trainer):
                nonlocal best
                best = max(best, accuracy(trainer.net, ds))
                return best >= 0.95

            tr.run(budget, log_every=1000, stop_when=hit)
            per_seed.append(best)
        results[kind] = per_seed
    nlw_hits = sum(a >= 0.95 for a in results["NLW"])
    lw_hits = sum(a >= 0.95 for a in results["LW"])
    elapsed = time.perf_counter() - start
    ok = nlw_hits >= 2 and lw_hits == 0
    _report(6, ok,
            f"spirals train accuracy: NLW reached 95% on {nlw_hits}/3 seeds "
            f"(need 2), LW on {lw_hits}/3 (best {max(results['LW']):.3f}, "
            f"need 0) in {elapsed:.0f}s")
