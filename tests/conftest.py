"""Shared fixtures, helpers and reporting: numpy in place of the compiled kernel, one
training iteration on given gate uniforms, and the acceptance-criterion lines for the
summary."""
import pytest

CRITERION_LINES: list[str] = []


class NumpyOnly:
    """Selects numpy in place of the compiled kernel, as where it cannot load.

    ``force(True)`` switches for the rest of the test (``force(False)`` keeps
    the kernel the process selects). A batch pass looks the kernel up on
    every call, but a network's workspace keeps the kernel it was bound with
    for the network's lifetime, so a net meant to run on numpy must first run
    after ``force(True)``; ``check(*nets)`` asserts that each net ran, and on
    numpy once numpy is forced.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.forced = False

    def force(self, on: bool) -> None:
        if on:
            from lutnet import kernel

            self._monkeypatch.setattr(kernel, "_loaded", "numpy forced by the test")
            self.forced = True

    def check(self, *nets) -> None:
        for net in nets:
            ws = vars(net).get("_workspace")
            assert ws is not None, "the net's workspace was never bound"
            if self.forced:
                assert ws.kern is None          # so no bound read, updates or diffusion call


@pytest.fixture
def numpy_only(monkeypatch):
    return NumpyOnly(monkeypatch)


def iterate(net, x, target, gate_u) -> float:
    """One training iteration of net on the gate uniforms gate_u, one per LUT
    connection, written to row 0 of its workspace's gate block."""
    from lutnet.train import _apply_iteration

    net._workspace.gate_u[0] = gate_u
    return _apply_iteration(net, x, target, 0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from lutnet import kernel

    # whether the compiled kernel was tested, or numpy alone and why
    terminalreporter.write_line(f"kernel: {kernel.describe()}")
    terminalreporter.write_line(kernel.describe_numpy())    # numpy's bits follow its dispatch
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
