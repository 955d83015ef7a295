"""Dataset containers, generators, CSV ingestion, scaling, splitting."""
import math

import numpy as np
import pytest

from lutnet.data import (
    BINARY_CLASSES,
    CsvSchema,
    Dataset,
    _pixel_grid,
    complement,
    gen_circle,
    gen_md2,
    gen_two_spirals,
    gen_two_spirals_sparse,
    load_csv,
    md2_value,
    scale_args,
    split,
    write_csv,
)


# ---------------------------------------------------------------------------
# Containers

def test_dataset_validates_and_normalizes_shapes():
    ds = Dataset([[1.0, 2.0]], [[0.5]])
    assert ds.args.shape == (1, 2) and ds.vals.shape == (1, 1)
    assert ds.n_args == 2 and ds.n_vals == 1 and len(ds) == 1
    with pytest.raises(ValueError):
        Dataset([[1.0]], [[0.5], [0.5]])        # row count mismatch


@pytest.mark.parametrize("which,row,value", [("args", 2, np.nan), ("vals", 1, np.inf),
                                             ("args", 0, -np.inf)])
def test_dataset_rejects_a_nonfinite_row_naming_it(which, row, value):
    arrays = {"args": np.zeros((4, 2)), "vals": np.zeros((4, 1))}
    arrays[which][row, -1] = value
    arrays["vals"][3, 0] = np.nan                      # a later bad row is not the one named
    with pytest.raises(ValueError, match=f"dataset row {row} has a non-finite value"):
        Dataset(arrays["args"], arrays["vals"])


def test_subset_copies_and_merges_provenance():
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.zeros((4, 1)),
                 provenance={"origin": "x"})
    sub = ds.subset(np.array([2, 0]), {"part": "demo"})
    assert np.array_equal(sub.args, [[4.0, 5.0], [0.0, 1.0]])
    assert sub.provenance == {"origin": "x", "part": "demo"}
    sub.args[0, 0] = 99.0
    assert ds.args[2, 0] == 4.0


# ---------------------------------------------------------------------------
# Circle

def test_circle_full_grid_and_labels():
    train, full = gen_circle(64)
    assert len(full) == 64 * 64
    assert np.array_equal(full.args, _pixel_grid(64))
    assert full.classes == BINARY_CLASSES
    d2 = full.args[:, 0] ** 2 + full.args[:, 1] ** 2
    assert np.array_equal(full.vals[:, 0] == 0.5, d2 <= 0.09)
    # corner pixel is a grid point and lies far outside the disk
    corner = np.nonzero((full.args == [-0.5, -0.5]).all(axis=1))[0]
    assert full.vals[corner[0], 0] == -0.5
    # the grid point nearest the center is inside
    near = int(np.argmin(d2))
    assert full.vals[near, 0] == 0.5


def test_circle_train_is_exact_fraction_subset():
    train, full = gen_circle(64, sampling_seed=3, sampling_fraction=0.15)
    assert len(train) == round(0.15 * 4096)
    rows = {r.tobytes() for r in np.ascontiguousarray(full.args)}
    assert all(r.tobytes() in rows for r in np.ascontiguousarray(train.args))
    # same seed reproduces the mask, another seed moves it
    again, _ = gen_circle(64, sampling_seed=3)
    other, _ = gen_circle(64, sampling_seed=4)
    assert np.array_equal(train.args, again.args)
    assert not np.array_equal(train.args, other.args)


def test_circle_complement_partitions_the_grid():
    train, full = gen_circle(64, sampling_seed=1)
    held = complement(full, train)
    assert len(train) + len(held) == len(full)
    held_rows = {r.tobytes() for r in np.ascontiguousarray(held.args)}
    train_rows = {r.tobytes() for r in np.ascontiguousarray(train.args)}
    assert not held_rows & train_rows


def test_complement_rejects_width_mismatch():
    a = Dataset(np.zeros((2, 2)), np.zeros((2, 1)))
    b = Dataset(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        complement(a, b)


def test_circle_validates_parameters():
    with pytest.raises(ValueError):
        gen_circle(4)
    with pytest.raises(ValueError):
        gen_circle(64, sampling_fraction=0.0)


@pytest.mark.parametrize("resolution", [8.5, 64.0, True, "64", None, 7, -8])
def test_circle_refuses_a_resolution_that_is_not_an_int_of_at_least_8(resolution):
    with pytest.raises(ValueError, match=r"^resolution must be at least 8 and an int "
                                         r"\(a bool is not one\), got "):
        gen_circle(resolution)


def test_circle_takes_a_numpy_integer_resolution():
    train, full = gen_circle(np.int64(8))
    assert len(full) == 64
    assert type(full.provenance["resolution"]) is int


# ---------------------------------------------------------------------------
# Spirals

def test_spirals_structure():
    ds = gen_two_spirals()
    assert len(ds) == 194
    assert ds.classes == BINARY_CLASSES
    # arm A starts exactly at the top of the box
    assert tuple(ds.args[0]) == (0.0, 0.5)
    assert np.array_equal(ds.args[97:], -ds.args[:97])
    assert np.all(np.abs(ds.args) <= 0.5 + 1e-12)
    assert np.array_equal(ds.vals[:97, 0], np.full(97, 0.5))
    assert np.array_equal(ds.vals[97:, 0], np.full(97, -0.5))


def test_spirals_radius_decreases_inward():
    ds = gen_two_spirals()
    rho = np.hypot(ds.args[:97, 0], ds.args[:97, 1])
    assert np.all(np.diff(rho) < 0)


def test_sparse_spirals_interleaved_parity():
    full = gen_two_spirals()
    sparse = gen_two_spirals_sparse()
    assert len(sparse) == 97
    a = sparse.args[sparse.vals[:, 0] == 0.5]
    b = sparse.args[sparse.vals[:, 0] == -0.5]
    assert len(a) == 49 and len(b) == 48
    assert np.array_equal(a, full.args[:97][0::2])
    assert np.array_equal(b, full.args[97:][1::2])


# ---------------------------------------------------------------------------
# md2

def test_md2_frozen_value():
    v = md2_value(np.array([0.25, 0.1, -0.2, 0.3, 0.0]))
    assert float(v) == 0.05098372016871239


def test_md2_zeros_of_leading_factor():
    assert float(md2_value(np.zeros(5))) == 0.0
    v = md2_value(np.array([0.0, 0.3, -0.1, 0.2, 0.4]))
    assert float(v) == 0.0


def test_md2_bounded_on_argument_box():
    rng = np.random.default_rng(0)
    args = rng.random((1_000_000, 5)) - 0.5
    vals = md2_value(args)
    assert np.all(np.abs(vals) <= 1.0)
    assert np.all(np.isfinite(vals))


def test_md2_rejects_wrong_width():
    with pytest.raises(ValueError):
        md2_value(np.zeros((3, 4)))


def test_gen_md2_shape_seeding_and_range():
    ds = gen_md2(512, seed=7)
    assert ds.args.shape == (512, 5) and ds.vals.shape == (512, 1)
    assert ds.classes is None
    assert np.all(ds.args >= -0.5) and np.all(ds.args < 0.5)
    assert np.array_equal(ds.args, gen_md2(512, seed=7).args)
    assert not np.array_equal(ds.args, gen_md2(512, seed=8).args)
    assert np.array_equal(ds.vals[:, 0], md2_value(ds.args))
    with pytest.raises(ValueError):
        gen_md2(0)


# ---------------------------------------------------------------------------
# CSV

def test_schema_validation():
    with pytest.raises(ValueError):
        CsvSchema(arg_columns=())
    with pytest.raises(ValueError):
        CsvSchema(arg_columns=(0,))                       # no target at all
    with pytest.raises(ValueError):
        CsvSchema(arg_columns=(0,), val_columns=(1,), class_column=2)
    with pytest.raises(ValueError):
        CsvSchema(arg_columns=(0,), val_columns=(1,), categorical_args=(5,))

    # a negative index would count from the end and could pick an argument column
    for kwargs, name in [
        ({"arg_columns": (0, -1), "val_columns": (2,)}, "arg_columns"),
        ({"arg_columns": (0,), "val_columns": (-2,)}, "val_columns"),
        ({"arg_columns": (0, 1), "class_column": -1}, "class_column"),
        ({"arg_columns": (0, 1), "class_column": -3}, "class_column"),
    ]:
        with pytest.raises(ValueError, match=rf"{name} must not hold a negative index"):
            CsvSchema(**kwargs)


def test_load_csv_numeric_targets(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0.25\n3.0,4.0,-0.5\n")
    ds = load_csv(p, CsvSchema(arg_columns=(0, 1), val_columns=(2,)))
    assert np.array_equal(ds.args, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.vals, [[0.25], [-0.5]])
    assert ds.classes is None
    assert ds.provenance["source"] == str(p)


def test_load_csv_binary_class_sorted_encoding(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,zebra\n2,apple\n3,zebra\n")
    ds = load_csv(p, CsvSchema(arg_columns=(0,), class_column=1))
    assert ds.classes == ("apple", "zebra")
    # sorted order: first label maps to the negative value
    assert np.array_equal(ds.vals[:, 0], [0.5, -0.5, 0.5])


def test_load_csv_multiclass_one_hot(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,c\n2,a\n3,b\n")
    ds = load_csv(p, CsvSchema(arg_columns=(0,), class_column=1))
    assert ds.classes == ("a", "b", "c")
    assert np.array_equal(ds.vals, [[-0.5, -0.5, 0.5],
                                    [0.5, -0.5, -0.5],
                                    [-0.5, 0.5, -0.5]])


def test_load_csv_categorical_argument(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("red,1.0,0.5\nblue,2.0,-0.5\n")
    ds = load_csv(p, CsvSchema(arg_columns=(0, 1), val_columns=(2,),
                               categorical_args=(0,)))
    # blue/red sorted: column 0 expands to two +/-0.5 indicators
    assert np.array_equal(ds.args, [[-0.5, 0.5, 1.0], [0.5, -0.5, 2.0]])


def test_load_csv_skips_headers_comments_blanks(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y,v\n# a note\n\n1.0,2.0,0.5\n")
    ds = load_csv(p, CsvSchema(arg_columns=(0, 1), val_columns=(2,), header=True))
    assert len(ds) == 1


def test_load_csv_error_messages_name_lines(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("1.0,2.0,0.5\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(p, CsvSchema(arg_columns=(0, 1), val_columns=(2,)))
    p2 = tmp_path / "bad.csv"
    p2.write_text("1.0,oops,0.5\n")
    with pytest.raises(ValueError, match="line 1.*column 1"):
        load_csv(p2, CsvSchema(arg_columns=(0, 1), val_columns=(2,)))
    p3 = tmp_path / "empty.csv"
    p3.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p3, CsvSchema(arg_columns=(0,), val_columns=(1,)))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "oops"])
@pytest.mark.parametrize("col", [0, 2], ids=["arg", "val"])
def test_load_csv_rejects_nonfinite_cells_naming_line_and_column(tmp_path, cell, col):
    p = tmp_path / "d.csv"
    row = ["0.3", "0.1", "0.5"]
    row[col] = cell
    p.write_text("0.1,0.2,0.5\n# comment\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=f"line 3: column {col} is not a finite number: '{cell}'"):
        load_csv(p, CsvSchema(arg_columns=(0, 1), val_columns=(2,)))


def test_csv_round_trip_preserves_exact_floats(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)),
                 provenance={"generator": "demo"})
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    back = load_csv(p, CsvSchema(arg_columns=(0, 1, 2), val_columns=(3, 4)))
    assert np.array_equal(back.args, ds.args)
    assert np.array_equal(back.vals, ds.vals)
    assert p.read_text().startswith("# generator=demo\n")


# ---------------------------------------------------------------------------
# Scaling and splitting

def test_scale_args_maps_to_unit_box():
    ds = Dataset([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]], [[0.0]] * 3)
    out = scale_args(ds)
    assert np.array_equal(out.args[:, 0], [-0.5, 0.5, 0.0])
    assert np.array_equal(out.args[:, 1], [0.0, 0.0, 0.0])   # constant column
    assert "scale" in out.provenance


def test_scale_args_params_reapply_training_scale():
    train = Dataset([[0.0], [10.0]], [[0.0]] * 2)
    scaled = scale_args(train)
    test = Dataset([[5.0], [20.0]], [[0.0]] * 2)
    out = scale_args(test, scaled.provenance["scale"])
    # 5 sits mid-range, 20 extrapolates beyond the training maximum
    assert np.allclose(out.args[:, 0], [0.0, 1.5], atol=1e-15)


def test_scale_args_leaves_original_untouched():
    ds = Dataset([[0.0], [4.0]], [[0.0]] * 2)
    scale_args(ds)
    assert np.array_equal(ds.args[:, 0], [0.0, 4.0])


def test_split_sizes_and_disjointness():
    ds = Dataset(np.arange(300.0).reshape(150, 2), np.zeros((150, 1)))
    train, test = split(ds, 0.8, seed=0)
    assert len(train) == 120 and len(test) == 30
    rows = sorted(np.vstack([train.args, test.args]).tolist())
    assert rows == sorted(ds.args.tolist())
    again_train, _ = split(ds, 0.8, seed=0)
    assert np.array_equal(train.args, again_train.args)
    other_train, _ = split(ds, 0.8, seed=1)
    assert not np.array_equal(train.args, other_train.args)


def test_split_fraction_validated_and_ceiling_exact():
    ds = Dataset(np.zeros((10, 1)), np.zeros((10, 1)))
    with pytest.raises(ValueError):
        split(ds, 0.0)
    with pytest.raises(ValueError):
        split(ds, 1.0)
    train, test = split(ds, 0.75, seed=0)
    assert len(train) == math.ceil(7.5) and len(test) == 2
