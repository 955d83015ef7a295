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
    """Decode buffer key of a format 2 or 3 document, apply edit in place, encode it back."""
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
    assert loaded.net.visit_scale == net.visit_scale < 1.0           # 50 iterations of decay
    assert loaded.net.visits.tobytes() == net.visits.tobytes()
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
    assert doc["version"] == 3
    assert doc["architecture"] == [2, 3, 1]
    assert doc["iteration"] == 0
    assert doc["rng"] is None
    assert list(doc)[-4:] == ["visit_scale", "params", "luts", "visits"]
    assert doc["visit_scale"] == 1.0
    assert "layers" not in doc
    # 3*2+3 + 1*3+1 parameters, 9 tables of r_res 64, 8 bytes each
    assert len(base64.b64decode(doc["params"], validate=True)) == 13 * 8
    assert len(base64.b64decode(doc["luts"], validate=True)) == 9 * 64 * 8


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_saved_bytes_are_json_dumps_of_the_whole_document(tmp_path, kind):
    net = _net(kind, sizes=(2, 4, 1))
    scale = {"min": [-1.5, 0.25], "max": [2.0, 3.0]}
    if kind == "NLW":
        net.visit_scale = 0.75
    p = tmp_path / "m.json"
    save_model(p, net, iteration=9, rng_state={"seed": 3}, scale=scale)
    doc = {"format": "lutnet-model", "version": 3, "architecture": [2, 4, 1], "kind": kind,
           "hyperparameters": net.hp.to_dict(), "iteration": 9, "rng": {"seed": 3},
           "scale": scale}
    buffers = {"params": net.params}
    if kind == "NLW":
        doc["visit_scale"] = 0.75
        buffers.update(luts=net.luts, visits=net.visits)
    for key, buf in buffers.items():
        doc[key] = base64.b64encode(buf.astype("<f8").tobytes()).decode("ascii")
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    assert p.read_bytes() == text.encode("ascii")


def test_lw_file_has_no_tables(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _net("LW"))
    doc = json.loads(p.read_text())
    assert "params" in doc
    assert "luts" not in doc and "visits" not in doc and "visit_scale" not in doc


def _corrupt(tmp_path, source, mutate):
    """Write a mutated document: 'v1' is the format 1 fixture, 'v3' and 'v3-LW' fresh saves."""
    p = tmp_path / "m.json"
    if source == "v1":
        doc = _fixture_doc()
    else:
        save_model(p, _net("LW" if source == "v3-LW" else "NLW"))
        doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return p


def _set(index, value):
    return lambda values: values.__setitem__(index, value)


@pytest.mark.parametrize("source,mutate,phrase", [
    ("v3", lambda d: d.update(format="other"), "not a model file"),
    ("v3", lambda d: d.update(version=99), "version"),
    ("v3", lambda d: d.update(kind="QW"), "kind"),
    ("v3", lambda d: d.update(architecture=[2]), "architecture"),
    ("v1", lambda d: d["layers"].pop(), "layer"),
    ("v1", lambda d: d["layers"][0]["w"].pop(), "shape"),
    ("v1", lambda d: d["layers"][0]["lut"][0][0].pop(), "shape"),
    ("v1", lambda d: d["layers"][0].update(w=d["layers"][0]["w"][0]), "layer 0: w shape"),
    ("v1", lambda d: d["layers"][0]["w"][0].__setitem__(0, None), "non-finite w"),
    ("v1", lambda d: d["layers"][0]["w"][0].__setitem__(0, 10 ** 400),
     "layer 0: w is not a numeric array of shape"),
    ("v1", lambda d: d["layers"][0].pop("visits"), "visits"),
    ("v3", lambda d: d.update(iteration=-3), "iteration"),
    ("v1", lambda d: d["layers"][0]["w"][0].__setitem__(0, float("nan")), "non-finite w"),
    ("v1", lambda d: d["layers"][1]["bias"].__setitem__(0, float("inf")), "non-finite bias"),
    ("v1", lambda d: d["layers"][0]["lut"][0][0].__setitem__(3, float("nan")),
     "non-finite lut"),
    ("v1", lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, float("inf")),
     "non-finite visits"),
    ("v1", lambda d: d["layers"][0]["visits"][0][0].__setitem__(3, 0.0), "below v_min"),
    ("v3", lambda d: d["hyperparameters"].update(r_res=64.0), "r_res"),
    ("v3", lambda d: d["hyperparameters"].update(r_b=-1.0), "r_b"),
    ("v3", lambda d: d.update(params=d["params"][:8] + "*" + d["params"][9:]),
     "params is not valid base64"),
    ("v3", lambda d: d.update(luts=base64.b64encode(base64.b64decode(d["luts"])[:-1])
                              .decode("ascii")), "luts holds 4607 bytes, expected 4608"),
    ("v3", lambda d: d.pop("visits"), "visits is missing"),
    ("v3-LW", lambda d: d.update(luts="", visits=""), "LUT tables in an LW model"),
    ("v3", lambda d: _patch(d, "params", _set(10, float("nan"))), "layer 1: non-finite w"),
    ("v3", lambda d: _patch(d, "luts", _set(6 * 64 + 5, float("inf"))),
     "layer 1: non-finite lut"),
    ("v3", lambda d: _patch(d, "visits", _set(3, 0.0)), "layer 0: visits entry below v_min"),
    ("v3", lambda d: d.update(version=True), "unsupported version True"),
    ("v3", lambda d: d.update(iteration=True), "bad iteration counter True"),
    ("v3", lambda d: d.update(architecture=[2, 3, True]), "bad architecture"),
    ("v3", lambda d: d["hyperparameters"].update(mu=True), "mu must be a number"),
    ("v3", lambda d: d.update(architecture=[2, 3.0, 1]), "bad architecture"),
    ("v3", lambda d: d.update(architecture=[2, 0, 1]), "bad architecture"),
    ("v3", lambda d: d.update(architecture="2-3-1"), "bad architecture"),
    ("v3", lambda d: d.update(scale={"min": [0.0], "max": [1.0, 2.0]}), "bad scale"),
    ("v3", lambda d: d.update(scale={"min": [0.0, float("nan")], "max": [1.0, 2.0]}),
     "bad scale"),
    ("v3", lambda d: d.update(scale={"min": [0.0, True], "max": [1.0, 2.0]}), "bad scale"),
    ("v3", lambda d: d.update(scale={"max": [1.0, 2.0]}), "bad scale"),
    ("v3", lambda d: d.update(scale=[0.0, 1.0]), "bad scale"),
    ("v3", lambda d: d.pop("visit_scale"), "visit_scale is missing"),
    ("v3", lambda d: d.update(visit_scale=float("nan")), "bad visit_scale nan"),
    ("v3", lambda d: d.update(visit_scale=float("inf")), "bad visit_scale inf"),
    ("v3", lambda d: d.update(visit_scale=0.0), r"bad visit_scale 0.0: need a number in \(0, 1\]"),
    ("v3", lambda d: d.update(visit_scale=-0.5), "bad visit_scale -0.5"),
    ("v3", lambda d: d.update(visit_scale=1.5), "bad visit_scale 1.5"),
    ("v3", lambda d: d.update(visit_scale=True), "bad visit_scale True"),
    ("v3", lambda d: d.update(visit_scale="0.5"), "bad visit_scale '0.5'"),
    ("v3-LW", lambda d: d.update(visit_scale=1.0), "LUT tables in an LW model"),
], ids=["format", "version", "kind", "arch", "layers", "w-shape",
        "lut-shape", "w-first-row", "none-w", "huge-int-w", "missing-visits", "iteration",
        "nan-w", "inf-bias", "nan-lut",
        "inf-visits", "zero-visits", "float-r_res", "negative-r_b",
        "v2-not-base64", "v2-byte-short", "v2-missing-visits", "v2-luts-on-lw",
        "v2-nan-params", "v2-inf-luts", "v2-zero-visits",
        "bool-version", "bool-iteration", "bool-arch", "bool-mu",
        "float-arch", "zero-node-arch", "string-arch", "scale-width", "scale-nan",
        "scale-bool", "scale-no-min", "scale-not-object", "visit-scale-missing",
        "visit-scale-nan", "visit-scale-inf", "visit-scale-zero", "visit-scale-negative",
        "visit-scale-above-one", "visit-scale-bool", "visit-scale-string",
        "visit-scale-on-lw"])
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


def test_v1_file_reads_a_number_written_as_a_string(tmp_path):
    doc = _fixture_doc()
    doc["layers"][0]["w"][1][0] = "0.5"
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert load_model(p).net.layers[0].w[1, 0] == 0.5


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_v1_file_resaves_in_the_current_version_bit_for_bit(tmp_path, kind):
    old = load_model(DATA / f"model_v1_{kind.lower()}.json")
    assert old.net.visit_scale == 1.0
    p = tmp_path / "m.json"
    save_model(p, old.net, old.iteration, old.rng_state)
    assert json.loads(p.read_text())["version"] == modelio.FORMAT_VERSION == 3
    new = load_model(p)
    assert new.iteration == old.iteration
    assert new.rng_state == old.rng_state
    assert new.net.visit_scale == 1.0
    for name in ("params", "luts", "visits"):
        a, b = getattr(old.net, name), getattr(new.net, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["LW", "NLW"])
def test_v2_file_loads_with_visit_scale_one(tmp_path, kind):
    # a version 2 document is a version 3 one without visit_scale
    net = _net(kind)
    p = tmp_path / "m.json"
    save_model(p, net, 7)
    doc = json.loads(p.read_text())
    doc["version"] = 2
    doc.pop("visit_scale", None)
    p.write_text(json.dumps(doc))
    loaded = load_model(p)
    assert loaded.net.visit_scale == 1.0
    assert loaded.iteration == 7
    assert max_param_difference(extract_params(net), loaded.net) == 0.0
    if kind == "NLW":
        assert loaded.net.visits.tobytes() == net.visits.tobytes()
        # a stored visit_scale is not read from a version 2 document
        doc["visit_scale"] = 0.5
        p.write_text(json.dumps(doc))
        assert load_model(p).net.visit_scale == 1.0


def test_save_refuses_nonfinite_and_writes_nothing(tmp_path):
    net = _net("NLW")
    net.luts[7, 2] = float("nan")          # layer 1 starts at LUT row 6
    p = tmp_path / "m.json"
    with pytest.raises(ValueError, match="layer 1: non-finite lut at dst 0, src 1, entry 2"):
        save_model(p, net)
    assert list(tmp_path.iterdir()) == []


def test_scale_round_trips_and_is_absent_unless_given(tmp_path):
    net = _net("NLW")
    p = tmp_path / "m.json"
    save_model(p, net, 4)
    assert "scale" not in json.loads(p.read_text())
    assert load_model(p).scale is None
    scale = {"min": [-3.0, np.float64(0.1)], "max": [5, 2.5]}
    save_model(p, net, 4, scale=scale)
    assert json.loads(p.read_text())["scale"] == {"min": [-3.0, 0.1], "max": [5, 2.5]}
    assert load_model(p).scale == {"min": [-3.0, 0.1], "max": [5, 2.5]}


@pytest.mark.parametrize("scale", [{"min": [0.0], "max": [1.0]},
                                   {"min": [0.0, float("inf")], "max": [1.0, 2.0]},
                                   {"max": [1.0, 2.0]}], ids=["width", "inf", "no-min"])
def test_save_refuses_a_bad_scale_and_writes_nothing(tmp_path, scale):
    with pytest.raises(ValueError, match="bad scale: need min and max lists of 2 finite"):
        save_model(tmp_path / "m.json", _net("NLW"), scale=scale)
    assert list(tmp_path.iterdir()) == []


# what load_model refuses, so a saved file always loads
@pytest.mark.parametrize("iteration,rng_state,message", [
    (-1, None, "bad iteration counter -1"),
    (3.7, None, "bad iteration counter 3.7"),
    (True, None, "bad iteration counter True"),
    ("5", None, "bad iteration counter '5'"),
    (0, [1, 2], "bad rng state"),
    (0, "x", "bad rng state"),
], ids=["negative-iteration", "float-iteration", "bool-iteration", "str-iteration", "rng-list",
        "rng-str"])
def test_save_refuses_a_bad_run_state_and_writes_nothing(tmp_path, iteration, rng_state, message):
    with pytest.raises(ValueError, match=message):
        save_model(tmp_path / "m.json", _net("NLW"), iteration, rng_state)
    assert list(tmp_path.iterdir()) == []


def test_save_takes_a_numpy_iteration_counter(tmp_path):
    save_model(tmp_path / "m.json", _net("NLW"), np.int64(5))
    loaded = load_model(tmp_path / "m.json").iteration
    assert type(loaded) is int and loaded == 5


def test_load_rejects_bad_hyperparameters(tmp_path):
    p = _corrupt(tmp_path, "v2", lambda d: d["hyperparameters"].update(r_res=1))
    with pytest.raises(ValueError):
        load_model(p)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.json")
