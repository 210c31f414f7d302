"""Shared test helpers, and the pytest hook that prints the
acceptance-criterion scoreboard."""

import numpy as np

from turnwave.curve import OPEN, PERIODIC, Curve, open_grid, periodic_grid

RESULTS = []


def flat_curve(n: int = 256, topology: str = PERIODIC, L: float = 40.0,
               offset: float = 0.0) -> Curve:
    """The horizontal line z2 = offset, parameterized by z1 = alpha."""
    a = periodic_grid(n) if topology == PERIODIC else open_grid(n, L)
    return Curve(topology, a, a.copy(), np.full(n, offset),
                 L=L if topology == OPEN else None)


def record(criterion: str, passed: bool, detail: str = ""):
    RESULTS.append((criterion, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
