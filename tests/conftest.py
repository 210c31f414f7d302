"""Shared test helpers, and the pytest hook that prints the
acceptance-criterion scoreboard."""

import numpy as np

from turnwave import curve as curve_module
from turnwave.curve import OPEN, PERIODIC, Curve, open_grid, periodic_grid

RESULTS = []


def flat_curve(n: int = 256, topology: str = PERIODIC, L: float = 40.0,
               offset: float = 0.0) -> Curve:
    """The horizontal line z2 = offset, parameterized by z1 = alpha."""
    a = periodic_grid(n) if topology == PERIODIC else open_grid(n, L)
    return Curve(topology, a, a.copy(), np.full(n, offset),
                 L=L if topology == OPEN else None)


def empty_scratch_pool(monkeypatch):
    """Give the O(N^2) kernels an empty scratch pool for the rest of the
    test, so that a traced call allocates, and is charged for, every block
    it asks of the pool: a warm-up call would otherwise have grown the
    pool untraced."""
    monkeypatch.setattr(curve_module, "_pool", [np.empty(0) for _ in curve_module._pool])


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
