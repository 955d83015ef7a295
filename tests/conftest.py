"""Shared reporting: collect acceptance-criterion lines for the summary."""

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from lutnet import kernel

    # whether the compiled kernel was tested, or numpy alone and why
    terminalreporter.write_line(f"kernel: {kernel.describe()}")
    terminalreporter.write_line(kernel.describe_numpy())    # numpy's bits follow its dispatch
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
