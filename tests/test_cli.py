"""Command-line behaviour: parsing, precedence, artifacts, exit codes."""
import base64
import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from lutnet import cli, evaluate, kernel
from lutnet.cli import UsageError, main, parse_arch, parse_config_file
from lutnet.core import forward_batch, forward_network, init_network
from lutnet.data import CsvSchema, Dataset, gen_two_spirals, load_csv, scale_args, write_csv
from lutnet.evaluate import accuracy, mse
from lutnet.hyper import Hyperparameters
from lutnet.modelio import load_model, save_model
from lutnet.train import Trainer


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


def test_parse_config_rejects_value_below_minimum(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("seed = 1\nlog-every = -5\n")
    with pytest.raises(UsageError, match=r"c.cfg:2: log_every must be at least 0"):
        parse_config_file(p)


def test_parse_config_rejects_data_fraction_outside_unit_interval(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("data-fraction = 1.5\n")
    with pytest.raises(UsageError, match=r"c.cfg:1: data_fraction must be in \(0, 1\]"):
        parse_config_file(p)


def test_hyperparameter_flags_take_their_help_from_the_docstring(capsys):
    assert run("train", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    described = {ln.split()[0]: " ".join(ln.split()[1:])
                 for ln in Hyperparameters.__doc__.splitlines()[2:] if ln.strip()}
    for f in fields(Hyperparameters):
        assert f"--{f.name.replace('_', '-')} {f.name.upper()} {described[f.name]}" in text


# one text per config key, each different from the setting's default; the flag
# of a boolean setting takes no value
CONFIG_SAMPLES = {
    "arch": "2-3-1", "kind": "LW", "iterations": "7", "seed": "3", "out": "m.json",
    "log": "log.csv", "log_every": "5", "checkpoint_every": "2", "test_data": "md2",
    "data": "circle", "data_seed": "4", "data_n": "9", "data_fraction": "0.5",
    "csv_args": "0-2", "csv_vals": "3", "csv_class": "4", "csv_categorical": "1",
    "csv_header": None, "scale": None,
    "mu": "0.25", "nu": "1.5", "r_res": "16", "i_min": "-0.5", "i_max": "0.75",
    "a_l": "0.1", "a_h": "0.3", "a_m": "1.2", "zeta": "0.5", "r_a": "0.001",
    "r_b": "0.002", "r_c": "0.003", "s_a": "0.5", "s_b": "1e-8", "v_p": "0.2",
    "v_min": "1e-10",
}


def _train_settings(monkeypatch, *argv):
    """What cmd_train is handed for a train command line."""
    seen = []
    monkeypatch.setattr("lutnet.cli.cmd_train", lambda ns: seen.append(vars(ns)) or 0)
    assert run("train", *argv) == 0
    return {key: value for key, value in seen[0].items() if key != "func"}


@pytest.mark.parametrize("key", sorted(CONFIG_SAMPLES))
def test_config_line_and_flag_give_the_same_value(tmp_path, monkeypatch, key):
    text = CONFIG_SAMPLES[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {'true' if text is None else text}\n")
    flag = f"--{key.replace('_', '-')}"
    by_flag = _train_settings(monkeypatch, flag, *([] if text is None else [text]))
    by_config = _train_settings(monkeypatch, "--config", cfg)
    default = _train_settings(monkeypatch)
    assert by_config[key] == by_flag[key] != default[key]
    assert type(by_config[key]) is type(by_flag[key])
    assert {k: v for k, v in by_config.items() if k != "config"} == \
        {k: v for k, v in by_flag.items() if k != "config"}


@pytest.mark.parametrize("key", ["reps", "resume", "model", "full"])
def test_config_keys_are_the_settings_of_the_commands_that_read_config(tmp_path, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = 1\n")
    with pytest.raises(UsageError, match=rf"c.cfg:1: unknown setting '{key}'"):
        parse_config_file(cfg)


@pytest.mark.parametrize("config,flags,message", [
    ("", (), "--kind must be given"),
    ("arch = 2-4-1\nseed = 1\n", (), "--kind must be given"),
    ("kind = foo\n", ("--kind", "NLW"), "c.cfg:1: kind must be one of LW, NLW, got 'foo'"),
    ("iterations = -3\n", ("--iterations", 5), "c.cfg:1: iterations must be at least 0"),
], ids=["no-kind", "config-without-kind", "config-kind-foo", "config-iterations-negative"])
def test_bad_or_missing_setting_is_usage_error_naming_it(tmp_path, capsys, config, flags,
                                                         message):
    # a config line's value is checked even where a flag overrides it
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--data", "spirals", "--arch", "2-4-1",
               "--iterations", 1, *flags, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (("--csv-args", "0,1", "--csv-class", -1), "--csv-class must be at least 0, got -1"),
    (("--csv-args", "0,1", "--csv-class", -3), "--csv-class must be at least 0, got -3"),
    (("--csv-args", "0,3-1", "--csv-class", 2),
     "--csv-args must list column indices or ranges like 0-3, got '0,3-1'"),
], ids=["class-minus-1", "class-minus-3", "reversed-range"])
def test_bad_column_index_is_usage_error_naming_the_flag(tmp_path, capsys, flags, message):
    data = tmp_path / "d.csv"
    data.write_text("0.1,-0.2,a\n0.3,0.0,b\n-0.1,0.3,a\n")
    out = tmp_path / "m.json"
    assert run("train", "--data", data, *flags, "--arch", "X-3-1", "--kind", "NLW",
               "--iterations", 5, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_config_resolution_is_unknown_setting(tmp_path, capsys):
    # no subcommand that reads --config renders, so the key would be ignored
    cfg = tmp_path / "c.cfg"
    cfg.write_text("resolution = 256\n")
    out = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--data", "spirals", "--arch", "2-4-1",
               "--kind", "NLW", "--iterations", 0, "--out", out) == 1
    assert "unknown setting 'resolution'" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("extra,message", [
    (("--mu", 0.5), "mu 0.5 differs from the model's 0.02"),
    (("--r-res", 64), "r_res 64 differs from the model's 16"),
    (("--kind", "LW"), "kind LW differs from the model's NLW"),
    (("--arch", "9-9-9"), "arch 9-9-9 differs from the model's 2-4-1"),
    (("--seed", 3), "seed 3 differs from the model's 0"),
    (("--config", "zeta = 0.5"), "zeta 0.5 differs from the model's 0.05"),
], ids=["hyper", "int-hyper", "kind", "arch", "seed", "config-line"])
def test_resume_refuses_a_setting_the_model_fixes(tmp_path, capsys, extra, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("arch = X-4-1\nkind = NLW\nseed = 0\nmu = 0.02\nr-res = 16\n")
    first, out = tmp_path / "r.json", tmp_path / "r2.json"
    resume = ("train", "--resume", first, "--data", "spirals", "--iterations", 0)
    assert run("train", "--config", cfg, "--data", "spirals", "--iterations", 0,
               "--out", first) == 0
    assert run(*resume, "--config", cfg, "--out", out) == 0      # the run's own settings
    out.unlink()
    if extra[0] == "--config":
        cfg.write_text(extra[1] + "\n")
        extra = ("--config", cfg)
    capsys.readouterr()
    assert run(*resume, *extra, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _key_paths(doc, at=()):
    """Every key path of a JSON object, parents before their children."""
    for key, value in doc.items():
        yield at + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, at + (key,))


def test_resume_checks_every_rng_entry_of_the_model(tmp_path, capsys):
    # each entry of the saved rng descriptor deleted or replaced: the run resumes and
    # eval scores, or each exits 2 with one error line that names the file, never
    # with a traceback
    saved = tmp_path / "saved.json"
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW",
               "--iterations", 20, "--out", saved) == 0
    doc = json.loads(saved.read_text())
    paths = [("rng",) + at for at in _key_paths(doc["rng"])]
    assert ("rng", "seed") in paths and ("rng", "gate", "state", "inc") in paths
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    codes = {}
    for at in [("rng",)] + paths:
        for value in ("deleted", None, -1, "x", True, [1, 2], 7):
            bad = json.loads(saved.read_text())
            owner = bad
            for key in at[:-1]:
                owner = owner[key]
            if value == "deleted":
                del owner[at[-1]]
            else:
                owner[at[-1]] = value
            model.write_text(json.dumps(bad))
            for argv in (("train", "--resume", model, "--iterations", 5, "--out", out),
                         ("eval", "--model", model)):
                capsys.readouterr()
                code = run(*argv, "--data", "spirals")
                err = capsys.readouterr().err
                case = f"{argv[0]} {'.'.join(at)} {value!r}: exit {code}, {err!r}"
                assert code in (0, 2), case
                if code == 2:
                    assert err.startswith(f"lutnet: error: {model}: "), case
                    assert err.count("\n") == 1, case
                codes[argv[0], ".".join(at), repr(value)] = code
    # the seed must be a non-negative int, not a bool; the gate a state PCG64 takes
    for value in ("None", "-1", "'x'", "True", "[1, 2]", "'deleted'"):
        assert codes["train", "rng.seed", value] == codes["train", "rng.gate", value] == 2
    assert codes["train", "rng.gate.uinteger", "-1"] == 2
    assert codes["train", "rng.gate.state", "None"] == 2
    # and no entry PCG64 would coerce: a bool for an int, has_uint32 outside {0, 1}
    for at in ("state.state", "state.inc", "uinteger", "has_uint32"):
        assert codes["train", f"rng.gate.{at}", "True"] == 2, at
    assert codes["train", "rng.gate.has_uint32", "-1"] == codes["train", "rng.gate.has_uint32",
                                                                 "7"] == 2
    assert codes["eval", "rng.seed", "'x'"] == 0        # eval reads no run state


def test_restore_refuses_a_gate_state_pcg64_refuses():
    trainer = Trainer(init_network((2, 1), "LW", Hyperparameters(), np.random.default_rng(0)),
                      np.zeros((3, 2)), np.zeros((3, 1)), seed=1)
    state = trainer.gate_state()
    coerced = [{**state, "state": {**state["state"], key: True}} for key in ("state", "inc")]
    coerced += [{**state, "uinteger": True}]
    coerced += [{**state, "has_uint32": value} for value in (-1, 7, True, 1.0)]
    for bad in [None, {**state, "uinteger": -1}, {**state, "bit_generator": "MT19937"},
                {k: v for k, v in state.items() if k != "state"}] + coerced:
        with pytest.raises(ValueError, match="the gate state is not a PCG64 state"):
            trainer.restore(7, bad)
        assert trainer.iteration == 0 and trainer.gate_state() == state
    trainer.restore(7, {**state, "has_uint32": 1, "uinteger": 5})
    assert trainer.iteration == 7 and trainer.gate_state()["uinteger"] == 5


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


def _scaled_csvs(tmp_path):
    """Training CSV over [-3, 5] and test CSV over [-1, 2], two args and one value."""
    rng = np.random.default_rng(31)
    paths = tmp_path / "train.csv", tmp_path / "test.csv"
    for path, n, lo, hi in zip(paths, (200, 50), (-3.0, -1.0), (5.0, 2.0)):
        args = rng.uniform(lo, hi, (n, 2))
        vals = 0.4 * np.tanh(args[:, :1] - args[:, 1:])
        np.savetxt(path, np.hstack([args, vals]), delimiter=",", fmt="%.6f")
    return paths


CSV_FLAGS = ("--csv-args", "0-1", "--csv-vals", 2)


def test_train_scales_test_data_with_the_training_scale(tmp_path):
    train_csv, test_csv = _scaled_csvs(tmp_path)
    out, log = tmp_path / "m.json", tmp_path / "log.csv"
    assert run("train", "--data", train_csv, "--csv-args", "0-1", "--csv-vals", 2, "--scale",
               "--test-data", test_csv, "--arch", "2-4-1", "--kind", "NLW",
               "--iterations", 200, "--log-every", 200, "--out", out, "--log", log) == 0
    schema = CsvSchema(arg_columns=(0, 1), val_columns=(2,))
    scale = scale_args(load_csv(train_csv, schema)).provenance["scale"]
    test = scale_args(load_csv(test_csv, schema), scale)
    logged = log.read_text().splitlines()[-1].split(",")[2]
    assert logged == repr(mse(load_model(out).net, test))


def test_scaled_model_stores_its_scale_and_eval_uses_it(tmp_path, capsys):
    train_csv, test_csv = _scaled_csvs(tmp_path)
    out = tmp_path / "m.json"
    assert run("train", "--data", train_csv, *CSV_FLAGS, "--scale", "--arch", "2-4-1",
               "--kind", "NLW", "--iterations", 200, "--out", out) == 0
    schema = CsvSchema(arg_columns=(0, 1), val_columns=(2,))
    scale = scale_args(load_csv(train_csv, schema)).provenance["scale"]
    loaded = load_model(out)
    assert loaded.scale == scale
    expected = f"mse {mse(loaded.net, scale_args(load_csv(test_csv, schema), scale)):.12g}"
    capsys.readouterr()
    for flags in ((), ("--scale",)):
        assert run("eval", "--model", out, "--data", test_csv, *CSV_FLAGS, *flags) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected


def test_checkpoint_stores_the_scale(tmp_path, monkeypatch):
    train_csv, _ = _scaled_csvs(tmp_path)
    saved = []
    monkeypatch.setattr("lutnet.cli.save_model",
                        lambda path, net, it, rng, scale=None: saved.append((it, scale)))
    assert run("train", "--data", train_csv, *CSV_FLAGS, "--scale", "--arch", "2-4-1",
               "--kind", "NLW", "--iterations", 200, "--checkpoint-every", 100,
               "--out", tmp_path / "m.json") == 0
    schema = CsvSchema(arg_columns=(0, 1), val_columns=(2,))
    scale = scale_args(load_csv(train_csv, schema)).provenance["scale"]
    assert saved == [(100, scale), (200, scale)]


def test_resume_scales_with_the_stored_scale(tmp_path):
    train_csv, test_csv = _scaled_csvs(tmp_path)
    part, again = tmp_path / "part.json", tmp_path / "again.json"
    assert run("train", "--data", train_csv, *CSV_FLAGS, "--scale", "--arch", "2-4-1",
               "--kind", "NLW", "--iterations", 100, "--seed", 4, "--out", part) == 0
    # resumed on the narrower test file, which must be scaled like the training file
    assert run("train", "--resume", part, "--data", test_csv, *CSV_FLAGS,
               "--iterations", 60, "--out", again) == 0
    loaded = load_model(part)
    ds = scale_args(load_csv(test_csv, CsvSchema(arg_columns=(0, 1), val_columns=(2,))),
                    loaded.scale)
    tr = Trainer(loaded.net, ds.args, ds.vals, seed=4)
    tr.restore(loaded.iteration, loaded.rng_state["gate"])
    tr.run(60)
    lib = tmp_path / "lib.json"
    save_model(lib, tr.net, tr.iteration, {"seed": 4, "gate": tr.gate_state()}, loaded.scale)
    assert again.read_bytes() == lib.read_bytes()


def test_eval_scale_on_a_model_without_stored_scale_is_usage_error(tmp_path, capsys):
    _, test_csv = _scaled_csvs(tmp_path)
    out = tmp_path / "m.json"
    assert run("train", "--data", test_csv, *CSV_FLAGS, "--arch", "2-4-1", "--kind", "NLW",
               "--iterations", 10, "--out", out) == 0
    assert "scale" not in json.loads(out.read_text())
    capsys.readouterr()
    assert run("eval", "--model", out, "--data", test_csv, *CSV_FLAGS, "--scale") == 1
    assert "stores no training input scale" in capsys.readouterr().err


def test_eval_nonfinite_csv_cell_exits_2_naming_line_and_column(tmp_path, capsys):
    model = _trained_model(tmp_path)
    data = tmp_path / "d.csv"
    data.write_text("0.1,0.2,0.5\n0.3,0.1,0.5\n-0.2,nan,0.5\n")
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", data, *CSV_FLAGS) == 2
    captured = capsys.readouterr()
    assert "line 3: column 1 is not a finite number: 'nan'" in captured.err
    assert captured.out == ""


def test_data_that_does_not_fit_the_net_has_one_wording(tmp_path, capsys):
    model = _trained_model(tmp_path)
    net = load_model(model).net
    ds = Dataset(np.zeros((4, 3)), np.zeros((4, 1)))
    messages = []
    for call in (lambda: mse(net, ds), lambda: Trainer(net, ds.args, ds.vals, seed=0)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value))
    data = tmp_path / "d.csv"
    write_csv(ds, data)
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", data, "--csv-args", "0-2",
               "--csv-vals", 3) == 1
    messages.append(capsys.readouterr().err.strip().removeprefix("lutnet: error: "))
    assert messages == ["need one or more samples as rows of 2 args and 1 vals, "
                        "got shapes (4, 3) and (4, 1)"] * 3
    # the forward passes take args only, in the same words
    with pytest.raises(ValueError, match=r"^need one sample of 2 args, got shape \(3,\)$"):
        forward_network(net, ds.args[0])
    with pytest.raises(ValueError,
                       match=r"^need samples as rows of 2 args, got shape \(4, 3\)$"):
        forward_batch(net, ds.args)


def test_train_missing_out_is_usage_error():
    assert run("train", "--data", "spirals", "--arch", "2-4-1",
               "--iterations", 10) == 1


def test_train_dimension_mismatch_is_usage_error(tmp_path, capsys):
    assert run("train", "--data", "spirals", "--arch", "3-4-1", "--kind", "NLW",
               "--iterations", 10, "--out", tmp_path / "m.json") == 1
    assert "need one or more samples as rows of 3 args" in capsys.readouterr().err


def test_train_bad_hyper_value_is_usage_error(tmp_path, capsys):
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW",
               "--zeta", 1.5, "--iterations", 10,
               "--out", tmp_path / "m.json") == 1
    assert "zeta must lie in [0, 1]" in capsys.readouterr().err


def test_train_rejects_an_overlong_probe_ladder(tmp_path, capsys):
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW",
               "--a-m", "1.000000001", "--iterations", 10, "--out", tmp_path / "m.json") == 1
    err = capsys.readouterr().err
    assert "a_m=1.000000001" in err and "more than the 256 allowed" in err
    assert not (tmp_path / "m.json").exists()


def test_fresh_model_with_v_p_below_v_min_loads(tmp_path):
    out = tmp_path / "m.json"
    assert run("train", "--data", "spirals", "--arch", "2-3-1", "--kind", "NLW",
               "--iterations", 0, "--seed", 1, "--v-p", 1e-20, "--out", out) == 0
    assert run("train", "--resume", out, "--data", "spirals", "--iterations", 5,
               "--out", tmp_path / "m2.json") == 0
    assert run("eval", "--model", out, "--data", "spirals") == 0


def test_train_nan_abort_exits_2_and_names_location(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW",
               "--iterations", 100, "--seed", 0, "--out", out) == 0
    doc = json.loads(out.read_text())
    # model files must be finite, so make it extreme instead: alternating
    # +-1e308 table entries overflow the derivative estimate on resume
    luts = np.frombuffer(base64.b64decode(doc["luts"]), "<f8").reshape(12, -1).copy()
    luts[8:] = 1e308 * (-1.0) ** np.arange(luts.shape[1])   # layer 1 holds rows 8-11
    doc["luts"] = base64.b64encode(luts.tobytes()).decode("ascii")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("train", "--resume", out, "--data", "spirals",
               "--iterations", 5000, "--out", tmp_path / "m2.json")
    err = capsys.readouterr().err
    assert code == 2
    assert "training aborted" in err
    assert "layer" in err and "iteration" in err
    assert not (tmp_path / "m2.json").exists()


def test_train_nonfinite_data_row_exits_2_and_names_it(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.1,0.2,0.5\n0.3,nan,-0.5\n-0.2,0.4,0.5\n")
    code = run("train", "--data", data, "--csv-args", "0,1", "--csv-vals", "2",
               "--arch", "X-3-1", "--kind", "NLW", "--iterations", 10,
               "--out", tmp_path / "m.json")
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2: column 1 is not a finite number: 'nan'" in err
    assert "training aborted" not in err
    assert not (tmp_path / "m.json").exists()


TRAIN = ("train", "--data", "spirals", "--arch", "2-4-1", "--kind", "NLW", "--iterations", 10)


@pytest.mark.parametrize("argv,flag", [
    (TRAIN + ("--log-every", -5), "--log-every"),
    (TRAIN + ("--checkpoint-every", -1), "--checkpoint-every"),
    (TRAIN + ("--seed", -3), "--seed"),
    (TRAIN + ("--data-seed", -3), "--data-seed"),
    (("gen-data", "md2", "--data-n", 0), "--data-n"),
    (("render", "--model", "model.json", "--resolution", 0), "--resolution"),
], ids=["log-every", "checkpoint-every", "seed", "data-seed", "data-n", "resolution"])
def test_flag_below_minimum_is_usage_error_naming_it(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.file"
    assert run(*argv, "--out", out) == 1
    assert f"{flag} must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen-data", "circle", "--data-fraction", 2),
    TRAIN[:2] + ("circle",) + TRAIN[3:] + ("--data-fraction", 0),
], ids=["gen-data", "train"])
def test_data_fraction_outside_unit_interval_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.file"
    assert run(*argv, "--out", out) == 1
    assert "--data-fraction must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_prints_metrics_and_is_readonly(tmp_path, capsys, monkeypatch):
    model = _trained_model(tmp_path)
    before = hashlib.sha256(model.read_bytes()).hexdigest()
    net, ds = load_model(model).net, gen_two_spirals()
    expected = [f"mse {mse(net, ds):.12g}", f"accuracy {accuracy(net, ds):.12g}"]
    passes = []

    def counted(*args):
        passes.append(args)
        return forward_batch(*args)

    for module in (cli, evaluate):
        monkeypatch.setattr(module, "forward_batch", counted)
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", "spirals") == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert len(passes) == 1
    assert 0.0 <= float(expected[1].split()[1]) <= 1.0
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


def test_bench_checks_connection_counts_before_timing(monkeypatch, capsys):
    def no_timing(runs, reps):
        raise AssertionError("timed before the connection counts were checked")

    monkeypatch.setattr("lutnet.bench._median_ms", no_timing)
    assert run("bench", "--archs", "2-8-1,2-8-1,2-8-1,2-8-1", "--kinds", "NLW",
               "--reps", 3) == 1
    captured = capsys.readouterr()
    assert "need >= 4 distinct connection counts" in captured.err
    assert captured.out == ""


def test_bench_prints_no_ratio_for_a_falling_lw_fit(monkeypatch, capsys):
    # each later (larger) architecture times faster: a negative slope for both kinds
    monkeypatch.setattr("lutnet.bench._median_ms",
                        lambda runs, reps: [1.0 / (i + 1) for i in range(len(runs))])
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", "LW,NLW",
               "--reps", 1) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("NLW/LW training slope ratio undefined: LW slope -")
    assert last.endswith(" ms per connection")


@pytest.mark.parametrize("kinds", ["LW,NLW", "LW"])
def test_bench_names_the_probe_read_before_its_fit_lines(monkeypatch, capsys, kinds):
    monkeypatch.setattr("lutnet.bench._median_ms", lambda runs, reps: [1.0] * len(runs))
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", kinds,
               "--reps", 1) == 0
    lines = capsys.readouterr().out.splitlines()
    fits = [f"{kind}: train " for kind in kinds.split(",")]
    assert lines.pop(0) == kernel.describe_numpy()
    assert lines.pop(0) == f"kernel: {kernel.describe()}"     # LW training runs it too
    assert [line[:len(fit)] for line, fit in zip(lines, fits)] == fits


@pytest.mark.parametrize("flags,message", [
    (("--r-res", 1), "--r-res: r_res must be at least 2"),
    (("--rres-values", "16,x"), "--rres-values must be a comma list of integers"),
    (("--rres-values", "16,1"), "--rres-values: r_res must be at least 2"),
], ids=["r-res", "rres-values-not-int", "rres-values-too-small"])
def test_bench_bad_table_length_is_usage_error(capsys, flags, message):
    # LW is timed before NLW's sweep, so a late check would print LW's fit first
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", "LW,NLW",
               "--reps", 1, *flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_bench_rres_values_with_no_nlw_kind_is_usage_error(monkeypatch, capsys):
    # before, LW dropped the sweep: exit 0 and no sweep row
    def no_timing(runs, reps):
        raise AssertionError("timed before --rres-values was checked")

    monkeypatch.setattr("lutnet.bench._median_ms", no_timing)
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", "LW",
               "--rres-values", "16,64", "--reps", 1) == 1
    captured = capsys.readouterr()
    assert "--rres-values sweeps NLW's r_res: --kinds 'LW' names no NLW" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kinds", ["", ",", "LW,NLW,LW"], ids=["empty", "comma", "repeated"])
def test_bench_kinds_naming_no_kind_or_one_twice_is_usage_error(monkeypatch, capsys, kinds):
    def no_timing(runs, reps):
        raise AssertionError("timed before --kinds was checked")

    monkeypatch.setattr("lutnet.bench._median_ms", no_timing)
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", kinds,
               "--reps", 1) == 1
    captured = capsys.readouterr()
    assert f"--kinds must name one or more kinds, each once, got {kinds!r}" in captured.err
    assert captured.out == ""


def test_bench_reps_below_one_is_usage_error(capsys):
    assert run("bench", "--archs", "2-2-1,2-4-1,2-8-1,2-12-1", "--kinds", "LW",
               "--reps", 0) == 1
    captured = capsys.readouterr()
    assert "--reps must be at least 1" in captured.err
    assert captured.out == ""
