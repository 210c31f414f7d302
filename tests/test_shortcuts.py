"""Checks that ask only what they need: arc_chord's floor, both derivative
orders from one call, and the plots a run draws from its trajectory in
memory.  Each gives the floats, or the bytes, of the full computation."""

import glob
import json
import os

import numpy as np
import pytest

from turnwave import curve as curve_module
from turnwave import stepping
from turnwave.cli import main
from turnwave.config import ScenarioConfig
from turnwave.curve import CHUNK, Curve, arc_chord, derivative, graph_curve
from turnwave.scenarios import _finish
from turnwave.stepping import Trajectory

from test_curve import (OPEN, PERIODIC, far_pair_curve, near_hairpin_curve,
                        smooth_perturbation, wavy)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("topology", [PERIODIC, OPEN])
@pytest.mark.parametrize("n", [256, 512, 513])
def test_both_derivative_orders_equal_the_single_order_calls(n, topology):
    """derivative(curve, (1, 2)) gives the pairs of derivative(curve, 1)
    and derivative(curve, 2) bit for bit, on one curve and on a stack."""
    curves = [smooth_perturbation(n, topology, c) for c in (
        [0.1, 0.0, 0.05, 0.2, 0.1, 0.0], [0.3, 0.2, -0.1, 0.0, 0.4, 0.1],
        [-0.2, 0.1, 0.0, 0.3, -0.1, 0.2])]
    c0 = curves[0]
    stack = Curve(topology, c0.alpha, np.array([c.z1 for c in curves]),
                  np.array([c.z2 for c in curves]), L=c0.L)
    for curve in (c0, stack):
        both = derivative(curve, (1, 2))
        assert len(both) == 2
        for pair, order in zip(both, (1, 2)):
            for got, alone in zip(pair, derivative(curve, order)):
                assert got.shape == curve.z1.shape
                assert got.tobytes() == alone.tobytes()
    with pytest.raises(ValueError):
        derivative(c0, (2, 1))


def test_periodic_derivative_orders_share_one_transform(monkeypatch):
    """Both orders of a periodic curve come from one fft of its two
    components and one ifft of the (2, 2, N) stack."""
    c = wavy(128)
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda f, *args, _t=transform, _n=name, **kw:
                            calls.append((_n, np.shape(f))) or _t(f, *args, **kw))
    derivative(c, (1, 2))
    assert calls == [("fft", (2, 128)), ("ifft", (2, 2, 128))]


def floor_cases():
    """(curve, d) pairs: open and periodic smooth curves, a fold, and a
    stack whose members are a smooth curve, a fold, a nan member and, on
    the open line, a zero chord."""
    cases = [(smooth_perturbation(131, t, [0.1, 0.0, 0.05, 0.2, 0.1, 0.0]), None)
             for t in (PERIODIC, OPEN)]
    cases += [(far_pair_curve(12 * CHUNK + 8), None), (near_hairpin_curve(), None)]
    for topology in (PERIODIC, OPEN):
        curves = [smooth_perturbation(131, topology, c) for c in (
            [0.1, 0.0, 0.05, 0.2, 0.1, 0.0], [0.5, 0.4, -0.3, 0.0, 0.5, 0.1],
            [-0.2, 0.1, 0.0, 0.3, -0.1, 0.2], [0.0, 0.3, 0.1, -0.2, 0.0, 0.3])]
        if topology == OPEN:
            curves[3].z1[90], curves[3].z2[90] = curves[3].z1[20], curves[3].z2[20]
        d = derivative(Curve(topology, curves[0].alpha, np.array([c.z1 for c in curves]),
                             np.array([c.z2 for c in curves]), L=curves[0].L), 1)
        curves[2].z2[70] = np.nan
        cases.append((Curve(topology, curves[0].alpha, np.array([c.z1 for c in curves]),
                            np.array([c.z2 for c in curves]), L=curves[0].L), d))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_arc_chord_floor_gives_max_of_floor_and_sup(case):
    """arc_chord(curve, floor=b) is max(b, arc_chord(curve)), the same
    float, for floors below, at and above the sup, and on a stack whose
    members fall on both sides of the floor; a nan member stays nan and a
    zero chord stays inf."""
    curve, d = floor_cases()[case]
    exact = np.atleast_1d(arc_chord(curve, d))
    finite = exact[np.isfinite(exact)]
    floors = [0.5 * finite.min(), finite.min(), finite.max(), 2.0 * finite.max(), 1e8]
    if finite.size > 1:
        floors.append(0.5 * (finite.min() + finite.max()))
    for b in floors:
        got = np.atleast_1d(arc_chord(curve, d, floor=b))
        want = np.maximum(b, exact)
        assert np.array_equal(got, want, equal_nan=True), b
        assert np.array_equal(np.isnan(got), np.isnan(exact))
    if curve.z1.ndim == 2:
        assert np.isnan(exact[2])
        assert (exact[3] == np.inf) == (curve.topology == OPEN)
        assert finite.min() < floors[-1] < finite.max()


@pytest.mark.parametrize("topology", [PERIODIC, OPEN])
def test_arc_chord_floor_evaluates_fewer_pairs(monkeypatch, topology):
    """On a smooth curve a floor far above the sup prunes chunk pairs that
    the exact sup evaluates: counted as the chunk pairs whose batch blocks
    the evaluation asks of the scratch pool.  On the periodic grid two
    stay, the wrap neighbours and a window whose pairs wrap, which no
    bound prunes."""
    curve = smooth_perturbation(513, topology, [0.3, 0.2, -0.1, 0.0, 0.4, 0.1])
    d = derivative(curve, 1)
    pairs = []
    pool = curve_module.scratch

    def counted(slot, shape, *args, **kwargs):
        if slot == 0 and len(shape) == 3:
            pairs.append(shape[0])
        return pool(slot, shape, *args, **kwargs)

    monkeypatch.setattr(curve_module, "scratch", counted)
    exact = arc_chord(curve, d)
    evaluated = sum(pairs)
    pairs.clear()
    assert arc_chord(curve, d, floor=1e8) == 1e8 > exact
    assert sum(pairs) < evaluated
    assert sum(pairs) == (2 if topology == PERIODIC else 0)


PLOTS = ("interface.svg", "min_slope.svg", "sigma_min.svg")


def run_without_reading_files(monkeypatch, argv):
    """main(argv) with the reader of a run directory (Trajectory.read_dir and
    the load_csv it calls) and np.genfromtxt made to raise, so that a run
    which reads back its own files fails; returns its exit code."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run read back a file it wrote")

    with monkeypatch.context() as m:
        m.setattr(np, "genfromtxt", refuse)
        m.setattr(Trajectory, "read_dir", refuse)
        m.setattr(stepping, "load_csv", refuse)
        return main(argv)


@pytest.mark.parametrize("config", ["muskat-turning.cfg", "muskat-breakdown.cfg",
                                    "waterwave-turning.cfg"])
def test_plots_drawn_from_memory_equal_the_rendered_files(tmp_path, monkeypatch, config):
    """A run draws its three plots from the trajectory in memory, without
    reading back a snapshot or diagnostics.csv, and `turnwave render` over
    the same directory writes the same bytes: an open curve (L in its
    snapshot header), the continuation curve appended at the RT sign
    change (with t_star empty, nan, before Turning) and a water wave."""
    out = tmp_path / "out"
    assert run_without_reading_files(
        monkeypatch, ["run", os.path.join(CONFIG_DIR, config), "--out", str(out)]) == 0
    drawn = [(out / name).read_bytes() for name in PLOTS]
    snaps = sorted(glob.glob(str(out / "snap_*.csv")))
    header = open(snaps[-1]).readline()
    assert (" L=" in header) == (config == "muskat-turning.cfg")
    if config == "muskat-breakdown.cfg":
        assert ",\n" in (out / "diagnostics.csv").read_text()   # an empty t_star
        events = json.loads((out / "events.json").read_text())
        assert float(header.split("t=")[1].split()[0]) == events[-1]["t"]
    assert main(["render", str(out)]) == 0
    assert [(out / name).read_bytes() for name in PLOTS] == drawn


def test_partial_trajectory_plots_drawn_from_memory(tmp_path, monkeypatch):
    """An exit-3 run draws the plots of its partial trajectory from memory,
    the bytes that `turnwave render` writes from its files."""
    real = stepping._rhs
    calls = []

    def nan_after_two_steps(*args):
        calls.append(1)
        zt, wt = real(*args)
        return (zt * np.nan if len(calls) > 2 * stepping.STAGES else zt), wt

    monkeypatch.setattr(stepping, "_rhs", nan_after_two_steps)
    path = write_cfg(tmp_path, "\n".join([
        "scenario = muskat-linear",
        "grid.n = 64",
        "numerics.dt = 5e-3",
        "numerics.t_end = 0.5",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert run_without_reading_files(monkeypatch, ["run", path]) == 3
    out = tmp_path / "out"
    drawn = [(out / name).read_bytes() for name in PLOTS]
    assert main(["render", str(out)]) == 0
    assert [(out / name).read_bytes() for name in PLOTS] == drawn


def test_plots_of_a_trajectory_without_snapshots_or_rows(tmp_path):
    """A trajectory with no snapshots raises FileNotFoundError, as render
    does on a directory without snapshot files; one with a snapshot but no
    diagnostics rows raises the ValueError that render raises on its
    files (a series plot of no times)."""
    cfg = ScenarioConfig()
    cfg.output_dir = str(tmp_path / "empty")
    with pytest.raises(FileNotFoundError, match="no snapshot files"):
        _finish(cfg, {"pass": True}, "", Trajectory())
    cfg.output_dir = str(tmp_path / "rowless")
    traj = Trajectory(snapshots=[(0.0, graph_curve(0.1 * np.ones(64)), None)])
    with pytest.raises(ValueError):
        _finish(cfg, {"pass": True}, "", traj)
    with pytest.raises(ValueError):
        main(["render", cfg.output_dir])
