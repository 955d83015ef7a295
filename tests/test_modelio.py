"""Model file round trips and validation."""
import base64
import json
from pathlib import Path

import numpy as np
import pytest

from lutnet import modelio
from lutnet.core import init_network
from lutnet.hyper import default_hyperparameters
from lutnet.modelio import load_model, save_model
from lutnet.train import Trainer
from reference import extract_params, max_param_difference

DATA = Path(__file__).parent / "data"


def _fixture_doc(kind="NLW"):
    """A format 1 file written by the last version that saved format 1."""
    return json.loads((DATA / f"model_v1_{kind.lower()}.json").read_text(encoding="ascii"))


def _patch(doc, key, edit):
    """Decode buffer key of a format 2 document, apply edit in place, encode it back."""
    values = np.frombuffer(base64.b64decode(doc[key]), "<f8").copy()
    edit(values)
    doc[key] = base64.b64encode(values.tobytes()).decode("ascii")


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
    net.layers[0].w[0, 0] = -0.0
    net.layers[0].bias[0] = -1e-300
    net.layers[1].lut[0, 0, 0] = 1.0 / 3.0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_model(a, net, tr.iteration, {"seed": tr.seed, "gate": tr.gate_state()})
    loaded = load_model(a)
    save_model(b, loaded.net, loaded.iteration, loaded.rng_state)
    assert a.read_bytes() == b.read_bytes()
    assert np.signbit(loaded.net.layers[0].w[0, 0])
    assert loaded.net.params.tobytes() == net.params.tobytes()


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
    assert doc["version"] == 2
    assert doc["architecture"] == [2, 3, 1]
    assert doc["iteration"] == 0
    assert doc["rng"] is None
    assert list(doc)[-3:] == ["params", "luts", "visits"]
    assert "layers" not in doc
    # 3*2+3 + 1*3+1 parameters, 9 tables of r_res 64, 8 bytes each
    assert len(base64.b64decode(doc["params"], validate=True)) == 13 * 8
    assert len(base64.b64decode(doc["luts"], validate=True)) == 9 * 64 * 8


def test_lw_file_has_no_tables(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _net("LW"))
    doc = json.loads(p.read_text())
    assert "params" in doc
    assert "luts" not in doc and "visits" not in doc


def _corrupt(tmp_path, source, mutate):
    """Write a mutated document: 'v1' is the format 1 fixture, 'v2' and 'v2-LW' fresh saves."""
    p = tmp_path / "m.json"
    if source == "v1":
        doc = _fixture_doc()
    else:
        save_model(p, _net("LW" if source == "v2-LW" else "NLW"))
        doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return p


def _set(index, value):
    return lambda values: values.__setitem__(index, value)


@pytest.mark.parametrize("source,mutate,phrase", [
    ("v2", lambda d: d.update(format="other"), "not a model file"),
    ("v2", lambda d: d.update(version=99), "version"),
    ("v2", lambda d: d.update(kind="QW"), "kind"),
    ("v2", lambda d: d.update(architecture=[2]), "architecture"),
    ("v1", lambda d: d["layers"].pop(), "layer"),
    ("v1", lambda d: d["layers"][0]["w"].pop(), "shape"),
    ("v1", lambda d: d["layers"][0]["lut"][0][0].pop(), "shape"),
    ("v1", lambda d: d["layers"][0].pop("visits"), "visits"),
    ("v2", lambda d: d.update(iteration=-3), "iteration"),
    ("v1", lambda d: d["layers"][0]["w"][0].__setitem__(0, float("nan")), "non-finite w"),
    ("v1", lambda d: d["layers"][1]["bias"].__setitem__(0, float("inf")), "non-finite bias"),
    ("v1", lambda d: d["layers"][0]["lut"][0][0].__setitem__(3, float("nan")),
     "non-finite lut"),
    ("v1", lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, float("inf")),
     "non-finite visits"),
    ("v1", lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, 0.0), "below v_min"),
    ("v2", lambda d: d["hyperparameters"].update(r_res=64.0), "r_res"),
    ("v2", lambda d: d["hyperparameters"].update(r_b=-1.0), "r_b"),
    ("v2", lambda d: d.update(params=d["params"][:8] + "*" + d["params"][9:]),
     "params is not valid base64"),
    ("v2", lambda d: d.update(luts=base64.b64encode(base64.b64decode(d["luts"])[:-1])
                              .decode("ascii")), "luts holds 4607 bytes, expected 4608"),
    ("v2", lambda d: d.pop("visits"), "visits is missing"),
    ("v2-LW", lambda d: d.update(luts="", visits=""), "LUT tables in an LW model"),
    ("v2", lambda d: _patch(d, "params", _set(10, float("nan"))), "layer 1: non-finite w"),
    ("v2", lambda d: _patch(d, "luts", _set(6 * 64 + 5, float("inf"))),
     "layer 1: non-finite lut"),
    ("v2", lambda d: _patch(d, "visits", _set(3, 0.0)), "layer 0: visits entry below v_min"),
    ("v2", lambda d: d.update(version=True), "unsupported version True"),
    ("v2", lambda d: d.update(iteration=True), "bad iteration counter True"),
    ("v2", lambda d: d.update(architecture=[2, 3, True]), "bad architecture"),
    ("v2", lambda d: d["hyperparameters"].update(mu=True), "mu must be a number"),
], ids=["format", "version", "kind", "arch", "layers", "w-shape",
        "lut-shape", "missing-visits", "iteration", "nan-w", "inf-bias", "nan-lut",
        "inf-visits", "zero-visits", "float-r_res", "negative-r_b",
        "v2-not-base64", "v2-byte-short", "v2-missing-visits", "v2-luts-on-lw",
        "v2-nan-params", "v2-inf-luts", "v2-zero-visits",
        "bool-version", "bool-iteration", "bool-arch", "bool-mu"])
def test_load_rejects_corrupt_documents(tmp_path, source, mutate, phrase):
    p = _corrupt(tmp_path, source, mutate)
    with pytest.raises(ValueError, match=phrase):
        load_model(p)


def test_load_rejects_tables_on_lw(tmp_path):
    p = tmp_path / "m.json"
    doc = _fixture_doc("LW")
    doc["layers"][0]["lut"] = [[[0.0] * 8] * 2] * 3
    doc["layers"][0]["visits"] = [[[0.1] * 8] * 2] * 3
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="layer 0: LUT tables in an LW model"):
        load_model(p)


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_v1_file_loads_its_exact_values(kind):
    doc = _fixture_doc(kind)
    loaded = load_model(DATA / f"model_v1_{kind.lower()}.json")
    assert loaded.net.sizes == (2, 3, 1)
    assert loaded.net.kind == kind
    assert loaded.net.hp.r_res == 8
    assert loaded.iteration == doc["iteration"] == 20
    assert loaded.rng_state == doc["rng"]
    for entry, lay in zip(doc["layers"], loaded.net.layers, strict=True):
        names = ("w", "bias", "lut", "visits") if kind == "NLW" else ("w", "bias")
        for name in names:
            assert getattr(lay, name).tolist() == entry[name]
    assert (loaded.net.luts is None) == (kind == "LW")


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_v1_file_resaves_as_v2_bit_for_bit(tmp_path, kind):
    old = load_model(DATA / f"model_v1_{kind.lower()}.json")
    p = tmp_path / "m.json"
    save_model(p, old.net, old.iteration, old.rng_state)
    assert json.loads(p.read_text())["version"] == 2
    new = load_model(p)
    assert new.iteration == old.iteration
    assert new.rng_state == old.rng_state
    for name in ("params", "luts", "visits"):
        a, b = getattr(old.net, name), getattr(new.net, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_save_refuses_nonfinite_and_writes_nothing(tmp_path):
    net = _net("NLW")
    net.luts[7, 2] = float("nan")          # layer 1 starts at LUT row 6
    p = tmp_path / "m.json"
    with pytest.raises(ValueError, match=r"layer 1 connection \(dst 0, src 1\) lut entry 2"):
        save_model(p, net)
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_bad_hyperparameters(tmp_path):
    p = _corrupt(tmp_path, "v2", lambda d: d["hyperparameters"].update(r_res=1))
    with pytest.raises(ValueError):
        load_model(p)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.json")
