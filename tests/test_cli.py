"""Command-line behaviour: parsing, precedence, artifacts, exit codes."""
import hashlib
import json

import numpy as np
import pytest

from lutnet.cli import main, parse_arch, parse_config_file
from lutnet.modelio import load_model


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Parsing helpers

def test_parse_arch_forms():
    assert parse_arch("2-32-32-1") == (2, 32, 32, 1)
    assert parse_arch("X-4-3", n_args=7) == (7, 4, 3)


def test_parse_arch_rejects_bad_forms():
    for text in ("2", "2-0-1", "2-x-1", "-2-1", "X-4-3"):
        with pytest.raises(Exception):
            parse_arch(text)                  # X without a dataset width


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nmu = 0.5\nr-res = 16\n\nkind = NLW\n")
    cfg = parse_config_file(p)
    assert cfg == {"mu": 0.5, "r_res": 16, "kind": "NLW"}


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("bogus = 1\n")
    with pytest.raises(Exception, match="bogus"):
        parse_config_file(p)


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("gen-data", "md2", "--data-n", 50, "--data-seed", 7, "--out", a) == 0
    assert run("gen-data", "md2", "--data-n", 50, "--data-seed", 7, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [ln for ln in a.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 50
    assert len(rows[0].split(",")) == 6


def test_gen_data_circle_mask_and_full(tmp_path):
    part, full = tmp_path / "p.csv", tmp_path / "f.csv"
    assert run("gen-data", "circle", "--out", part) == 0
    assert run("gen-data", "circle", "--full", "--out", full) == 0
    n_part = sum(1 for ln in part.read_text().splitlines() if not ln.startswith("#"))
    n_full = sum(1 for ln in full.read_text().splitlines() if not ln.startswith("#"))
    assert n_part == round(0.15 * 4096)
    assert n_full == 4096


def test_gen_data_unknown_name_is_usage_error(tmp_path, capsys):
    assert run("gen-data", "blob", "--out", tmp_path / "x.csv") == 1
    # spirals needs no sampling knobs and has a fixed row count
    p = tmp_path / "s.csv"
    assert run("gen-data", "spirals", "--out", p) == 0
    assert sum(1 for ln in p.read_text().splitlines() if not ln.startswith("#")) == 194


# ---------------------------------------------------------------------------
# train

def test_train_zero_iterations_keeps_initialization(tmp_path):
    out = tmp_path / "m.json"
    assert run("train", "--data", "spirals", "--arch", "X-4-1", "--kind", "NLW",
               "--iterations", 0, "--seed", 3, "--out", out) == 0
    m = load_model(out)
    assert m.iteration == 0
    from lutnet.core import init_network
    from lutnet.hyper import default_hyperparameters
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, 0])))
    twin = init_network((2, 4, 1), "NLW", default_hyperparameters("NLW"), rng)
    assert all(np.array_equal(a.w, b.w) and np.array_equal(a.lut, b.lut)
               for a, b in zip(m.net.layers, twin.layers))


def test_train_is_deterministic_across_invocations(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert run("train", "--data", "spirals", "--arch", "2-6-1", "--kind", "NLW",
                   "--r-res", 16, "--iterations", 400, "--seed", 1, "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_train_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mu = 0.5\nzeta = 0.25\n")
    out = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--data", "spirals", "--arch", "2-4-1",
               "--kind", "NLW", "--iterations", 0, "--seed", 0,
               "--mu", 0.125, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["hyperparameters"]["mu"] == 0.125      # flag wins
    assert doc["hyperparameters"]["zeta"] == 0.25     # config beats default
    assert doc["hyperparameters"]["nu"] == 2.5        # default survives


def test_train_resume_matches_uninterrupted_run(tmp_path):
    whole = tmp_path / "whole.json"
    part = tmp_path / "part.json"
    base = ("train", "--data", "spirals", "--arch", "2-5-1", "--kind", "NLW",
            "--r-res", 16, "--seed", 9)
    assert run(*base, "--iterations", 600, "--out", whole) == 0
    assert run(*base, "--iterations", 300, "--out", part) == 0
    assert run("train", "--resume", part, "--data", "spirals",
               "--iterations", 300, "--out", part) == 0
    assert whole.read_bytes() == part.read_bytes()


def test_train_writes_log_with_expected_cadence(tmp_path):
    out = tmp_path / "m.json"
    log = tmp_path / "log.csv"
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "LW",
               "--iterations", 250, "--log-every", 100, "--seed", 0,
               "--out", out, "--log", log) == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,train_mse"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [100, 200, 250]
    assert all(float(ln.split(",")[1]) >= 0 for ln in lines[1:])


def test_train_log_includes_test_column_when_given(tmp_path):
    data = tmp_path / "d.csv"
    assert run("gen-data", "md2", "--data-n", 40, "--out", data) == 0
    out = tmp_path / "m.json"
    log = tmp_path / "log.csv"
    assert run("train", "--data", data, "--csv-args", "0-4", "--csv-vals", 5,
               "--test-data", "md2", "--data-n", 40, "--data-seed", 1,
               "--arch", "X-4-1", "--kind", "LW", "--iterations", 200,
               "--log-every", 100, "--seed", 0, "--out", out, "--log", log) == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,train_mse,test_mse"
    assert len(lines[1].split(",")) == 3


def test_train_missing_out_is_usage_error():
    assert run("train", "--data", "spirals", "--arch", "2-4-1",
               "--iterations", 10) == 1


def test_train_dimension_mismatch_is_usage_error(tmp_path):
    assert run("train", "--data", "spirals", "--arch", "3-4-1",
               "--iterations", 10, "--out", tmp_path / "m.json") == 1


def test_train_bad_hyper_value_is_usage_error(tmp_path):
    assert run("train", "--data", "spirals", "--arch", "2-4-1",
               "--zeta", 1.5, "--iterations", 10,
               "--out", tmp_path / "m.json") == 1


def test_train_nan_abort_exits_2_and_names_location(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW",
               "--iterations", 100, "--seed", 0, "--out", out) == 0
    doc = json.loads(out.read_text())
    # model files must be finite, so make it extreme instead: alternating
    # +-1e308 table entries overflow the derivative estimate on resume
    for row in doc["layers"][1]["lut"]:
        row[:] = [[1e308 * (-1) ** k for k in range(len(t))] for t in row]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("train", "--resume", out, "--data", "spirals",
               "--iterations", 5000, "--out", tmp_path / "m2.json")
    err = capsys.readouterr().err
    assert code == 2
    assert "training aborted" in err
    assert "layer" in err and "iteration" in err
    assert not (tmp_path / "m2.json").exists()


def test_train_resume_missing_file_exits_2(tmp_path):
    assert run("train", "--resume", tmp_path / "nope.json", "--data", "spirals",
               "--iterations", 10, "--out", tmp_path / "m.json") == 2


# ---------------------------------------------------------------------------
# eval and render

def _trained_model(tmp_path, iterations=300):
    out = tmp_path / "model.json"
    assert run("train", "--data", "spirals", "--arch", "2-6-1", "--kind", "NLW",
               "--r-res", 16, "--iterations", iterations, "--seed", 2,
               "--out", out) == 0
    return out


def test_eval_prints_metrics_and_is_readonly(tmp_path, capsys):
    model = _trained_model(tmp_path)
    before = hashlib.sha256(model.read_bytes()).hexdigest()
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", "spirals") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mse ")
    assert lines[1].startswith("accuracy ")
    assert 0.0 <= float(lines[1].split()[1]) <= 1.0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == before


def test_eval_csv_equals_generator(tmp_path, capsys):
    model = _trained_model(tmp_path)
    csv_path = tmp_path / "sp.csv"
    assert run("gen-data", "spirals", "--out", csv_path) == 0
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", "spirals") == 0
    direct = capsys.readouterr().out.splitlines()[0]
    assert run("eval", "--model", model, "--data", csv_path,
               "--csv-args", "0,1", "--csv-vals", 2) == 0
    via_csv = capsys.readouterr().out.splitlines()[0]
    assert direct == via_csv


def test_eval_missing_model_exits_2(tmp_path):
    assert run("eval", "--model", tmp_path / "none.json", "--data", "spirals") == 2


def test_render_writes_pgm(tmp_path):
    model = _trained_model(tmp_path)
    out = tmp_path / "surface.pgm"
    assert run("render", "--model", model, "--resolution", 32, "--out", out) == 0
    blob = out.read_bytes()
    assert blob.startswith(b"P5\n32 32\n255\n")
    assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32
    again = tmp_path / "again.pgm"
    assert run("render", "--model", model, "--resolution", 32, "--out", again) == 0
    assert again.read_bytes() == blob


def test_render_wrong_arity_is_usage_error(tmp_path):
    out = tmp_path / "m.json"
    assert run("train", "--data", "md2", "--data-n", 30, "--arch", "X-4-1",
               "--kind", "LW", "--iterations", 0, "--seed", 0, "--out", out) == 0
    assert run("render", "--model", out, "--out", tmp_path / "s.pgm") == 1


# ---------------------------------------------------------------------------
# bench

def test_bench_writes_fit_and_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", "LW",
               "--reps", 1, "--out", out) == 0
    text = capsys.readouterr().out
    assert "train" in text and "forward" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,arch,connections,r_res,phase,ms_per_iter"
    assert len(lines) == 1 + 4 * 2            # two phases per architecture
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) > 0


def test_bench_needs_enough_architectures():
    assert main(["bench", "--archs", "2-2-1,2-4-1", "--kinds", "LW",
                 "--reps", "1"]) == 1
