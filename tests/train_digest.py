"""Digest of training's bits on the compiled kernel and on numpy: a bit-identity check.

Run from the repository root, ``PYTHONPATH=src python tests/train_digest.py``. It
prints numpy's version and dispatch targets (``kernel.describe_numpy()``, which
the bits follow), the kernel it loaded, and one SHA-256 digest of the protocol
below for each path: first the kernel's, as the process selects it, then numpy's,
forced as ``conftest.NumpyOnly`` forces it. The two digests are equal when both
paths give the same bits, and it exits 1 when they do not. Run it in two
checkouts on one machine to check that a change keeps the bits. pytest does not
collect this file.

The protocol, on public calls only: fifteen nets (NLW 2-8-1 r64, 2-32-32-1 r256,
5-16-16-1 r16 and r256, 2-1, 2-1-1, 2-4-3-2 at s_a = r_a = 0, 2-3-1 at s_a = 5,
s_b = 0, 1-1 at r_c = 0.5, 2-1-9 r64; LW 5-32-32-1, 2-8-1, 2-4-3-2 at s_a = 0,
2-3-1 at s_a = 5 and 2-1-9), each
initialised from ``default_rng(7)`` and trained by ``Trainer.run`` with seed 3 for
700 then 800 iterations at log_every 100 on ``bench_dataset`` inputs scaled by
1.3, some outside the domain; then 40 ``train_iteration`` calls. The digest takes
the initial params, the log rows, params, LUTs, visits and visit scale after
each stage, ``forward_batch`` on the inputs and the saved model's bytes, and 300
draws of each scalar form (``interpolate``, ``approx_lut_derivative``,
``update_lut_component``, ``update_visits``, ``diffuse_lut``, ``diffuse_visits``
and ``gain_decay``).
"""
import hashlib
import os
import sys
import tempfile

import numpy as np

from lutnet import kernel
from lutnet.bench import bench_dataset
from lutnet.core import LutConnection, forward_batch, init_network, interpolate
from lutnet.hyper import default_hyperparameters
from lutnet.modelio import save_model
from lutnet.regularize import diffuse_lut, diffuse_visits, gain_decay, update_visits
from lutnet.train import Trainer, approx_lut_derivative, train_iteration, update_lut_component

NETS = [
    ("NLW", (2, 8, 1), {"r_res": 64}),
    ("NLW", (2, 32, 32, 1), {"r_res": 256}),
    ("NLW", (5, 16, 16, 1), {"r_res": 16}),
    ("NLW", (5, 16, 16, 1), {"r_res": 256}),
    ("NLW", (2, 1), {}),
    ("NLW", (2, 1, 1), {}),
    ("NLW", (2, 4, 3, 2), {"s_a": 0.0, "r_a": 0.0}),
    ("NLW", (2, 3, 1), {"s_a": 5.0, "s_b": 0.0}),
    ("NLW", (1, 1), {"r_c": 0.5}),
    ("NLW", (2, 1, 9), {"r_res": 64}),
    ("LW", (5, 32, 32, 1), {}),
    ("LW", (2, 8, 1), {}),
    ("LW", (2, 4, 3, 2), {"s_a": 0.0}),
    ("LW", (2, 3, 1), {"s_a": 5.0}),
    ("LW", (2, 1, 9), {}),
]


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self._hash.update(np.ascontiguousarray(value).tobytes())
            else:
                self._hash.update(repr(value).encode())

    def net(self, net) -> None:
        self.add(net.params, net.visit_scale)
        if net.luts is not None:
            self.add(net.luts, net.visits)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def train_nets(digest: Digest, folder: str) -> None:
    for i, (kind, sizes, changes) in enumerate(NETS):
        hp = default_hyperparameters(kind).replace(**changes)
        net = init_network(sizes, kind, hp, np.random.default_rng(7))
        args, vals = bench_dataset(sizes[0], sizes[-1], count=200, seed=i)
        args = args * 1.3
        digest.add(kind, sizes, net.params)
        trainer = Trainer(net, args, vals, seed=3)
        for iterations in (700, 800):
            digest.add(trainer.run(iterations, log_every=100))
            digest.net(net)
        rng = np.random.default_rng(11)
        for it in range(40):
            digest.add(train_iteration(net, args[it], vals[it], rng))
        digest.net(net)
        digest.add(forward_batch(net, args))
        path = os.path.join(folder, f"net{i}.json")
        save_model(path, net, trainer.iteration, {"seed": 3, "gate": trainer.gate_state()})
        with open(path, "rb") as fh:
            digest.add(fh.read())


def scalar_forms(digest: Digest) -> None:
    hp = default_hyperparameters("NLW").replace(r_res=16)
    rng = np.random.default_rng(5)
    for _ in range(300):
        table = rng.normal(size=hp.r_res)
        visits = rng.uniform(hp.v_min, 1.0, hp.r_res)
        x, e = float(rng.uniform(-1.3, 1.3)), float(rng.normal())
        conn = LutConnection(float(rng.normal()), table.copy(), visits.copy())
        digest.add(interpolate(table, x, hp), approx_lut_derivative(conn, x, hp),
                   update_lut_component(conn, e, x, hp, gate=bool(rng.random() < 0.5)),
                   update_visits(visits, x, hp), diffuse_lut(table, visits, hp),
                   diffuse_visits(visits, hp), gain_decay(float(table[0]), e, hp))


def protocol() -> str:
    digest = Digest()
    with tempfile.TemporaryDirectory() as folder:
        train_nets(digest, folder)
    scalar_forms(digest)
    return digest.hexdigest()


def main() -> int:
    print(kernel.describe_numpy())
    print(f"kernel: {kernel.describe()}")
    kernel_digest = protocol()
    kernel._loaded = "numpy forced by train_digest"     # new nets bind no kernel call
    numpy_digest = protocol()
    print(f"kernel path {kernel_digest}")
    print(f"numpy path  {numpy_digest}")
    print("same bits" if kernel_digest == numpy_digest else "the paths differ")
    return int(kernel_digest != numpy_digest)


if __name__ == "__main__":
    sys.exit(main())
