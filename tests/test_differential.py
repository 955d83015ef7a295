"""Differential fuzzing: ``Trainer.run`` against the scalar reference.

Method after McKeeman, *Differential Testing for Software* (Digital
Technical Journal, 1998): two implementations of one specification run
on the same drawn inputs, and any disagreement is a fault in one of
them. Here hypothesis draws the architecture, the kind, hyperparameters
across what ``Hyperparameters`` accepts and training rows on the domain
edges, on grid points and outside the domain; ``Trainer.run`` and
``tests/reference.py`` then train on the same rows and gate draws for at
most 20 iterations and must agree to 1e-9, relative above 1.

Some drawn runs are expanding maps: a large step on one repeated row
oscillates, and the two implementations' last-bit rounding differences
grow by a constant factor each iteration, past 1e-9 within 20 iterations.
Such a run says nothing about a fault. So the same run is also trained
with every parameter one ulp up, and a run that this nudge moves by more
than 1e-11 is left out; the reference gap follows that spread closely.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lutnet.core import init_network, lut_grid
from lutnet.hyper import KINDS, Hyperparameters
from lutnet.train import Trainer
from reference import extract_params, max_relative_param_difference, ref_iteration, relative_gap


def _spread(a, b):
    """Largest gap between two parameter buffers, relative above 1."""
    return float((np.abs(b - a) / np.maximum(1.0, np.abs(a))).max())


@st.composite
def training_runs(draw):
    """(sizes, kind, hp, args, vals, seed, iterations) for one short training run."""
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    kind = draw(st.sampled_from(KINDS))
    i_min = draw(st.floats(-2.0, 0.5))
    i_max = i_min + draw(st.floats(0.05, 3.0))
    span = i_max - i_min
    a_l = draw(st.floats(0.01 * span, 1.5 * span))            # near or beyond the span
    hp = Hyperparameters(
        mu=draw(st.floats(0.0, 0.5)), nu=draw(st.floats(0.0, 5.0)),
        r_res=draw(st.integers(2, 16)), i_min=i_min, i_max=i_max,
        a_l=a_l, a_h=a_l * draw(st.floats(1.0, 4.0)), a_m=draw(st.floats(1.05, 2.0)),
        zeta=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        r_a=draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0))),
        r_b=draw(st.floats(0.0, 2.0)), r_c=draw(st.floats(0.0, 0.5)),
        s_a=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        s_b=draw(st.floats(0.0, 1e-2)), v_p=draw(st.floats(1e-3, 1.0)),
        v_min=draw(st.floats(1e-16, 0.5)))
    grid = lut_grid(hp)
    point = st.one_of(
        st.sampled_from([i_min, i_max]),                          # domain edges
        st.integers(0, hp.r_res - 1).map(lambda j: float(grid[j])),
        st.floats(i_min - 1.0, i_max + 1.0),                     # inside and outside
    )
    n = draw(st.integers(1, 6))
    args = np.array(draw(st.lists(st.lists(point, min_size=sizes[0], max_size=sizes[0]),
                                  min_size=n, max_size=n)))
    vals = np.array(draw(st.lists(st.lists(st.floats(-0.9, 0.9), min_size=sizes[-1],
                                           max_size=sizes[-1]), min_size=n, max_size=n)))
    return sizes, kind, hp, args, vals, draw(st.integers(0, 2**16)), draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@example(run=((2, 4, 3, 2), "NLW", Hyperparameters(r_res=8, zeta=0.5, i_min=-0.4, i_max=1.1),
              np.array([[-0.4, 1.1], [0.35, 2.0], [-1.0, 0.1]]),
              np.array([[0.5, -0.5], [0.1, 0.2], [-0.3, 0.8]]), 7, 20))
@example(run=((4, 1), "NLW", Hyperparameters(mu=0.5, nu=2.0, r_res=3, i_min=0.0, i_max=2.0,
                                             a_l=1.0, a_h=1.0, a_m=2.0, zeta=0.0, s_a=0.0),
              np.array([[0.0, 0.0, 2.0, 1.0]]), np.array([[0.0]]), 0, 20))   # expanding: left out
@given(run=training_runs())
def test_trainer_run_matches_scalar_reference(run):
    sizes, kind, hp, args, vals, seed, iterations = run
    net, nudged = (init_network(sizes, kind, hp, np.random.default_rng(seed)) for _ in "ab")
    for buf in (nudged.params, nudged.luts):
        if buf is not None:
            buf[...] = np.nextafter(buf, np.inf)
    params = extract_params(net)
    tr = Trainer(net, args, vals, seed)
    gates = np.random.Generator(np.random.PCG64())
    gates.bit_generator.state = tr.gate_state()
    gate_u = gates.random((iterations, net.lut_connection_count()))
    rows = tr.run(iterations, log_every=1)
    Trainer(nudged, args, vals, seed).run(iterations, log_every=0)
    assume(all(_spread(getattr(net, name), getattr(nudged, name)) <= 1e-11
               for name in ("params", "luts") if getattr(net, name) is not None))
    for it, (_, err) in enumerate(rows):
        epoch, pos = divmod(it, len(args))
        idx = tr._epoch_order(epoch)[pos]
        ref_err = ref_iteration(params, args[idx], vals[idx], gate_u[it], hp, kind)
        assert relative_gap(ref_err, err) <= 1e-9
    assert max_relative_param_difference(params, net) <= 1e-9
