"""Metrics, surface rendering, and PGM round trips."""
import math

import numpy as np
import pytest

from lutnet.core import forward_batch, forward_network, init_network
from lutnet.data import Dataset, gen_two_spirals
from lutnet.evaluate import (
    accuracy,
    mse,
    quantize_gray,
    render_surface,
    write_pgm,
)
from lutnet.hyper import default_hyperparameters
from lutnet.train import Trainer


LW = default_hyperparameters("LW")
NLW = default_hyperparameters("NLW")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _zero_net(sizes=(2, 1), kind="LW"):
    hp = default_hyperparameters(kind)
    net = init_network(sizes, kind, hp, _rng([0, 0]))
    for lay in net.layers:
        lay.w[:] = 0.0
        lay.bias[:] = 0.0
        if lay.lut is not None:
            lay.lut[:] = 0.0
    return net


def _bias_net(value: float):
    # single output node pinned at tanh^-1(value), no input influence
    net = _zero_net((2, 1))
    net.layers[0].bias[0] = math.atanh(value)
    return net


# ---------------------------------------------------------------------------
# mse

def test_mse_zero_for_reproduced_targets():
    net = init_network((2, 3, 2), "NLW", NLW, _rng([1, 0]))
    args = np.random.default_rng(1).uniform(-0.5, 0.5, (10, 2))
    ds = Dataset(args, forward_batch(net, args))
    assert mse(net, ds) == 0.0


def test_mse_constant_output_frozen_value():
    ds = Dataset([[0.1, 0.2], [-0.3, 0.4]], [[0.5], [-0.5]])
    assert mse(_zero_net(), ds) == 0.25       # tanh(0) = 0 against +/-0.5


def test_mse_single_sample_arithmetic():
    net = _bias_net(0.1)
    ds = Dataset([[0.0, 0.0]], [[0.5]])
    y, _ = forward_network(net, np.zeros(2))
    assert mse(net, ds) == pytest.approx((y[0] - 0.5) ** 2, abs=1e-15)
    assert mse(net, ds) == pytest.approx(0.16, abs=1e-12)


def test_mse_multi_output_averages_columns():
    net = _zero_net((1, 2))
    ds = Dataset([[0.0]], [[0.5, -0.1]])
    assert mse(net, ds) == pytest.approx((0.25 + 0.01) / 2, abs=1e-15)


def test_mse_validates_dims_and_empty():
    net = _zero_net()
    with pytest.raises(ValueError):
        mse(net, Dataset([[1.0]], [[0.5]]))
    with pytest.raises(ValueError):
        mse(net, Dataset(np.zeros((0, 2)), np.zeros((0, 1))))


# ---------------------------------------------------------------------------
# accuracy

def test_accuracy_binary_by_sign():
    ds = Dataset([[0.0, 0.0], [0.1, 0.1]], [[0.5], [-0.5]], classes=("neg", "pos"))
    assert accuracy(_bias_net(0.3), ds) == 0.5     # always positive
    assert accuracy(_bias_net(-0.3), ds) == 0.5    # always negative


def test_accuracy_exact_zero_output_is_wrong():
    ds = Dataset([[0.0, 0.0]], [[0.5]], classes=("neg", "pos"))
    assert accuracy(_zero_net(), ds) == 0.0
    ds_neg = Dataset([[0.0, 0.0]], [[-0.5]], classes=("neg", "pos"))
    assert accuracy(_zero_net(), ds_neg) == 0.0


def test_accuracy_multiclass_argmax():
    net = _zero_net((1, 3))
    net.layers[0].bias[:] = [0.1, 0.5, 0.2]       # argmax is output 1
    ds = Dataset([[0.0], [0.0]],
                 [[-0.5, 0.5, -0.5], [0.5, -0.5, -0.5]],
                 classes=("a", "b", "c"))
    assert accuracy(net, ds) == 0.5


def test_accuracy_requires_classification_dataset():
    ds = Dataset([[0.0, 0.0]], [[0.5]])
    with pytest.raises(ValueError):
        accuracy(_zero_net(), ds)


def test_trained_spiral_net_scores_above_chance():
    ds = gen_two_spirals()
    hp = NLW.replace(r_res=16, r_b=0.01)
    net = init_network((2, 8, 1), "NLW", hp, _rng([2, 0]))
    Trainer(net, ds.args, ds.vals, seed=0).run(4000, log_every=0)
    assert accuracy(net, ds) > 0.55


# ---------------------------------------------------------------------------
# Rendering

def test_render_constant_surface():
    img = render_surface(_bias_net(0.25), resolution=16)
    assert img.shape == (16, 16)
    assert np.allclose(img, 0.25, atol=1e-15)


def test_render_vertical_gradient_from_second_input():
    net = _zero_net()
    net.layers[0].w[0, 1] = 1.0               # output depends on y only
    img = render_surface(net, resolution=8)
    # constant along each row, strictly increasing down the columns
    assert np.all(img == img[:, :1])
    assert np.all(np.diff(img[:, 0]) > 0)


def test_render_upper_left_pixel_is_box_corner():
    net = init_network((2, 4, 1), "NLW", NLW, _rng([3, 0]))
    img = render_surface(net, resolution=32)
    y, _ = forward_network(net, np.array([-0.5, -0.5]))
    assert img[0, 0] == y[0]


def test_render_matches_per_pixel_forwards():
    net = init_network((2, 4, 1), "NLW", NLW, _rng([4, 0]))
    img = render_surface(net, resolution=9)
    coords = np.linspace(-0.5, 0.5, 9)
    for r in range(9):
        for c in range(9):
            y, _ = forward_network(net, np.array([coords[c], coords[r]]))
            assert img[r, c] == y[0]


def test_render_validates_arity_and_resolution():
    with pytest.raises(ValueError):
        render_surface(_zero_net((3, 1)))
    with pytest.raises(ValueError):
        render_surface(_zero_net((2, 2)))
    with pytest.raises(ValueError):
        render_surface(_zero_net(), resolution=0)


@pytest.mark.parametrize("resolution", [2.5, 16.0, True, "16", None, 0, -3])
def test_render_refuses_a_resolution_that_is_not_a_positive_int(resolution):
    with pytest.raises(ValueError, match=r"^resolution must be at least 1 and an int "
                                         r"\(a bool is not one\), got "):
        render_surface(_zero_net(), resolution)


def test_render_takes_a_numpy_integer_resolution():
    assert render_surface(_zero_net(), np.int32(3)).shape == (3, 3)


# ---------------------------------------------------------------------------
# PGM quantization and files

def test_quantize_gray_frozen_points():
    vals = np.array([0.0, -0.5, 0.5, -0.7, 0.9])
    assert quantize_gray(vals).tolist() == [128, 0, 255, 0, 255]


def test_quantize_gray_rounds_half_up():
    # this value lands exactly on level 32.5; half-up gives 33 where
    # round-to-even would give 32
    v = -0.37254901960784315
    assert (v + 0.5) * 255.0 == 32.5
    assert quantize_gray(np.array([v])).tolist() == [33]


def test_pgm_round_trip(tmp_path):
    net = init_network((2, 4, 1), "NLW", NLW, _rng([5, 0]))
    img = render_surface(net, resolution=24)
    p = tmp_path / "s.pgm"
    write_pgm(img, p)
    header = b"P5\n24 24\n255\n"
    blob = p.read_bytes()
    assert blob.startswith(header)
    assert blob[len(header):] == quantize_gray(img).tobytes()


def test_pgm_header_is_width_then_height(tmp_path):
    p = tmp_path / "s.pgm"
    write_pgm(np.zeros((2, 3)), p)
    assert p.read_bytes() == b"P5\n3 2\n255\n" + bytes([128] * 6)


def test_write_pgm_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        write_pgm(np.array([[0.0, np.nan], [0.0, 0.0]]), tmp_path / "x.pgm")
    with pytest.raises(ValueError, match=r"2-D array, got shape \(4,\)"):
        write_pgm(np.zeros(4), tmp_path / "x.pgm")
    assert list(tmp_path.iterdir()) == []
