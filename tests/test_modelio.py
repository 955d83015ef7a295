"""Model file round trips and validation."""
import json

import numpy as np
import pytest

from lutnet import modelio
from lutnet.core import init_network
from lutnet.hyper import default_hyperparameters
from lutnet.modelio import load_model, save_model
from lutnet.train import Trainer
from reference import extract_params, max_param_difference


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _net(kind="NLW", sizes=(2, 3, 1), seed=0):
    return init_network(sizes, kind, default_hyperparameters(kind), _rng([seed, 0]))


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_round_trip_preserves_everything(tmp_path, kind):
    net = _net(kind)
    # make the parameters carry awkward exact values
    net.layers[0].w[0, 0] = 1.0 / 3.0
    net.layers[0].bias[0] = -1e-300
    p = tmp_path / "m.json"
    save_model(p, net, iteration=12345, rng_state={"seed": 7, "gate": {"a": 1}})
    loaded = load_model(p)
    assert loaded.net.sizes == net.sizes
    assert loaded.net.kind == kind
    assert loaded.net.hp == net.hp
    assert loaded.iteration == 12345
    assert loaded.rng_state == {"seed": 7, "gate": {"a": 1}}
    assert max_param_difference(extract_params(net), loaded.net) == 0.0


def test_save_load_save_is_byte_identical(tmp_path):
    net = _net("NLW")
    ds_args = np.random.default_rng(0).uniform(-0.5, 0.5, (8, 2))
    ds_vals = np.random.default_rng(1).uniform(-0.5, 0.5, (8, 1))
    tr = Trainer(net, ds_args, ds_vals, seed=5)
    tr.run(50, log_every=0)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_model(a, net, tr.iteration, {"seed": tr.seed, "gate": tr.gate_state()})
    loaded = load_model(a)
    save_model(b, loaded.net, loaded.iteration, loaded.rng_state)
    assert a.read_bytes() == b.read_bytes()


def test_failed_save_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    p = tmp_path / "m.json"
    save_model(p, _net("NLW", seed=1))
    old = p.read_bytes()
    real_open = open

    class HalfWrite:
        """A file that writes half of what it is given, then fails."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(modelio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_model(p, _net("NLW", seed=2))
    monkeypatch.undo()
    assert p.read_bytes() == old
    assert list(tmp_path.iterdir()) == [p]


def test_saved_file_is_plain_ascii_json(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _net("NLW"))
    doc = json.loads(p.read_text(encoding="ascii"))
    assert doc["format"] == "lutnet-model"
    assert doc["version"] == 1
    assert doc["architecture"] == [2, 3, 1]
    assert doc["iteration"] == 0
    assert doc["rng"] is None
    assert len(doc["layers"]) == 2
    assert "lut" in doc["layers"][0] and "visits" in doc["layers"][0]


def test_lw_file_has_no_tables(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _net("LW"))
    doc = json.loads(p.read_text())
    assert "lut" not in doc["layers"][0]


def _corrupt(tmp_path, mutate):
    p = tmp_path / "m.json"
    save_model(p, _net("NLW"))
    doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("mutate,phrase", [
    (lambda d: d.update(format="other"), "not a model file"),
    (lambda d: d.update(version=99), "version"),
    (lambda d: d.update(kind="QW"), "kind"),
    (lambda d: d.update(architecture=[2]), "architecture"),
    (lambda d: d["layers"].pop(), "layer"),
    (lambda d: d["layers"][0]["w"].pop(), "shape"),
    (lambda d: d["layers"][0]["lut"][0][0].pop(), "shape"),
    (lambda d: d["layers"][0].pop("visits"), "visits"),
    (lambda d: d.update(iteration=-3), "iteration"),
    (lambda d: d["layers"][0]["w"][0].__setitem__(0, float("nan")), "non-finite w"),
    (lambda d: d["layers"][1]["bias"].__setitem__(0, float("inf")), "non-finite bias"),
    (lambda d: d["layers"][0]["lut"][0][0].__setitem__(3, float("nan")), "non-finite lut"),
    (lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, float("inf")),
     "non-finite visits"),
    (lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, 0.0), "below v_min"),
    (lambda d: d["hyperparameters"].update(r_res=64.0), "r_res"),
    (lambda d: d["hyperparameters"].update(r_b=-1.0), "r_b"),
], ids=["format", "version", "kind", "arch", "layers", "w-shape",
        "lut-shape", "missing-visits", "iteration", "nan-w", "inf-bias", "nan-lut",
        "inf-visits", "zero-visits", "float-r_res", "negative-r_b"])
def test_load_rejects_corrupt_documents(tmp_path, mutate, phrase):
    p = _corrupt(tmp_path, mutate)
    with pytest.raises(ValueError, match=phrase):
        load_model(p)


def test_load_rejects_tables_on_lw(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _net("LW"))
    doc = json.loads(p.read_text())
    doc["layers"][0]["lut"] = [[[0.0] * 64] * 2] * 3
    doc["layers"][0]["visits"] = [[[0.1] * 64] * 2] * 3
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(p)


def test_load_rejects_bad_hyperparameters(tmp_path):
    p = _corrupt(tmp_path, lambda d: d["hyperparameters"].update(r_res=1))
    with pytest.raises(ValueError):
        load_model(p)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.json")
