"""Time stepping: RK4 order, Krasny filtering, event detection, trajectory
persistence."""

import json

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants
from turnwave.curve import Curve, graph_curve, load_csv, periodic_grid
from turnwave.initial_data import (TurningParams, turning_candidate_open,
                                   turning_candidate_periodic)
from turnwave.stepping import BlowUpError, TURNING, SimState, advance, run


def small_graph(n=64, eps=1e-3, k=2):
    return graph_curve(eps * np.cos(k * periodic_grid(n)))


def test_rk4_fourth_order_self_convergence():
    """Halving dt cuts the time-discretization error by ~16x (measured
    against a fine-dt reference of the same spatial problem)."""
    k = 2

    def amplitude(dt):
        st = SimState(small_graph(64, 1e-2, k))
        st = advance(st, 0.5, dt)
        return 2 * abs(np.fft.fft(st.curve.z2)[k]) / 64

    ref = amplitude(0.4 / 64)
    e1 = abs(amplitude(0.1) - ref)
    e2 = abs(amplitude(0.05) - ref)
    assert e1 / e2 > 10.0  # fourth order would be ~16

    # and the rate itself is the linear one to leading order
    assert amplitude(0.05) == pytest.approx(1e-2 * np.exp(-k * 0.25), rel=1e-3)


def test_advance_reaches_target_time():
    st = SimState(small_graph())
    out = advance(st, 0.123, 0.02)  # not divisible by dt
    assert abs(out.t - 0.123) < 1e-12


def test_krasny_filter_keeps_solution_clean():
    st = SimState(small_graph())
    out = advance(st, 0.2, 1e-2)
    coeffs = np.abs(np.fft.fft(out.curve.z2)) / 64
    peak = coeffs.max()
    # no partially-contaminated band: every mode is either resolved or at
    # the roundoff floor the filter keeps re-zeroing
    assert np.all((coeffs < 1e-15 * peak) | (coeffs > 1e-13 * peak))


def test_run_records_monotone_diagnostics():
    st = SimState(small_graph())
    traj, final = run(st, 0.05, 1e-2)
    t = traj.column("t")
    assert np.all(np.diff(t) > 0)
    assert final.t == pytest.approx(0.05)
    assert traj.events.kinds() == []


def test_run_emits_turning_event():
    params = TurningParams(beta1=1.5, b=3.0)
    cand = turning_candidate_periodic(params, n=256, tilt=0.02)
    st = SimState(cand)
    traj, final = run(st, 0.2, 1e-3, stop_on=(TURNING,))
    ev = traj.events.first(TURNING)
    assert ev is not None and 0.0 < ev.t <= final.t + 1e-12
    # interpolated crossing: min_slope positive before, negative at stop
    ms = traj.column("min_slope")
    assert ms[0] > 0 and ms[-1] <= 0


def test_blowup_error_carries_trajectory():
    st = SimState(small_graph())
    st.curve.z2[3] = np.nan
    with pytest.raises(BlowUpError) as err:
        run(st, 0.05, 1e-2)
    assert err.value.trajectory is not None


def test_trajectory_write_dir_round_trip(tmp_path):
    st = SimState(small_graph())
    traj, _ = run(st, 0.03, 1e-2)
    traj.write_dir(tmp_path)
    events = json.loads((tmp_path / "events.json").read_text())
    assert events == []
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    snaps = sorted(tmp_path.glob("snap_*.csv"))
    assert len(snaps) == len(traj.snapshots)


def test_write_dir_thins_to_cadence_and_keeps_appended_curves(tmp_path):
    """write_dir keeps every cadence-th step and the last step of the run,
    then every curve appended after the run; diagnostics keep every step."""
    traj, final = run(SimState(small_graph()), 0.06, 1e-2)
    assert len(traj.snapshots) == 7
    traj.snapshots.append((1.0, final.curve, None))
    traj.write_dir(tmp_path, cadence=4)
    snaps = sorted(tmp_path.glob("snap_*.csv"))
    assert [load_csv(p)[1] for p in snaps] == pytest.approx([0.0, 0.04, 0.06, 1.0])
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 7


def test_state_picks_its_problem():
    """An amplitude makes a water-wave state; without one the curve's
    topology picks the Muskat kernel."""
    from turnwave import stepping
    consts = PhysicalConstants()
    assert consts.rho1 == 0.0   # vacuum above by default
    periodic, omega = small_graph(), np.cos(periodic_grid(64))
    zt, wt = stepping._rhs(consts, periodic, omega)
    assert np.array_equal(zt, stepping.waterwave_rhs(periodic, omega, consts)[0])
    assert wt is not None
    zt, wt = stepping._rhs(consts, periodic, None)
    assert wt is None
    assert np.array_equal(zt, stepping.muskat_rhs_periodic(
        periodic, consts.darcy_factor / (4.0 * np.pi)))
    open_curve = turning_candidate_open(TurningParams(), n=129, L=15.0, tilt=0.05)
    zt, wt = stepping._rhs(consts, open_curve, None)
    assert wt is None
    assert np.array_equal(zt, stepping.muskat_rhs_open(open_curve, consts.darcy_factor))


def test_waterwave_energy_bounded_small_amplitude():
    """A small standing wave stays bounded over a few periods (the stable
    stratification)."""
    n, k, eps = 64, 2, 1e-4
    st = SimState(graph_curve(eps * np.cos(k * periodic_grid(n))), np.zeros(n))
    out = advance(st, 3.0, 5e-3)
    assert np.max(np.abs(out.curve.z2)) < 3 * eps
