"""Time stepping: Dormand-Prince order and dense output, sampling and step
counts, the step floor, Krasny filtering, event detection, trajectory
persistence."""

import json

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants
from turnwave.curve import (Curve, arc_chord, derivative, graph_curve, graph_slope_sup,
                            load_csv, min_slope, periodic_grid)
from turnwave.initial_data import (TurningParams, turning_candidate_open,
                                   turning_candidate_periodic)
from turnwave import stepping
from turnwave.spectral import discrete_h4_norm
from turnwave.stepping import (BlowUpError, DIAG_COLUMNS, GRAPH_BLOWUP, STAGES, STEP_TOL,
                               TURNING, SimState, StepStats, Trajectory, advance, run,
                               step_dp54)


def small_graph(n=64, eps=1e-3, k=2):
    return graph_curve(eps * np.cos(k * periodic_grid(n)))


def test_dp54_fifth_order_local_error():
    """Halving h on one step cuts the local error by ~2^6 = 64 (a
    fifth-order method), measured against the same step taken as 64
    substeps."""
    st = SimState(small_graph(64, 1e-1, 2))

    def local_error(h):
        ref = st
        for _ in range(64):
            ref = step_dp54(ref, h / 64).end
        end = step_dp54(st, h).end
        return np.max(np.abs(end.curve.z2 - ref.curve.z2))

    ratio = local_error(0.2) / local_error(0.1)
    assert 40.0 < ratio < 100.0


def test_dp54_dense_output_matches_fine_reference():
    """At theta = 1/2 the dense output of an accepted step (error estimate
    <= 1) agrees with the midpoint of a fine reference to about STEP_TOL,
    and at theta = 1 it is the step's end state."""
    st = SimState(small_graph(64, 1e-1, 2))
    step = step_dp54(st, 0.04)
    assert 0.1 < step.error <= 1.0
    mid = step.at(0.02)
    ref = st
    for _ in range(32):
        ref = step_dp54(ref, 0.02 / 32).end
    assert mid.t == 0.02
    assert np.max(np.abs(mid.curve.z2 - ref.curve.z2)) < 3 * STEP_TOL
    end = step.at(0.04)
    assert np.max(np.abs(end.curve.z2 - step.end.curve.z2)) < 1e-17


def test_dense_output_is_its_polynomial_bit_for_bit():
    """Step.at evaluates y0 + theta (dy + rest (b + theta (c + rest d))),
    rest = 1 - theta, in place in one array, with the bits of that
    expression, at one time and at each time of a stack."""
    st = SimState(small_graph(64, 1e-1, 2))
    step = step_dp54(st, 0.04)
    y0, dy, b, c, d = step.dense
    ts = np.array([0.003, 0.01, 0.025, 0.039])
    stack = step.at(ts)
    for i, t in enumerate(ts.tolist()):
        theta = (t - st.t) / step.h
        rest = 1.0 - theta
        expected = stepping._unpack(st, y0 + theta * (dy + rest * (b + theta * (c + rest * d))),
                                    t).curve
        for got in (step.at(t).curve, stepping._member(stack, i).curve):
            assert same_bits(got.z1, expected.z1) and same_bits(got.z2, expected.z2)


def test_turning_time_independent_of_sampling_interval():
    """t* is root-found on the dense output, so on a small open candidate
    it agrees to 1e-9 across sampling intervals 1e-3 and 4e-3."""
    cand = turning_candidate_open(TurningParams(beta1=1.0, b=3.0), n=257,
                                  L=15.0, tilt=0.05)
    t_star = []
    for dt in (1e-3, 4e-3):
        traj, final = run(SimState(cand), 0.5, dt, stop_at_turning=True)
        ev = traj.events.first(TURNING)
        lo, hi = ev.payload["bracket"]
        assert hi == final.t and hi - lo == pytest.approx(dt) and lo < ev.t <= hi
        t_star.append(ev.t)
    assert abs(t_star[0] - t_star[1]) < 1e-9


@pytest.mark.parametrize("topology", ["open", "periodic"])
def test_reused_stages_give_the_bits_of_recomputed_ones(monkeypatch, topology):
    """A trial step reuses the first stage of the rejected trial it
    retries, and on an open curve, whose end states the filter leaves as
    they are, the last stage of the accepted step before it.  The run is
    bit for bit the one that evaluates every first stage again, and its
    RHS count is the number of _rhs calls made: seven per trial less one
    per reused stage."""
    if topology == "open":
        state = SimState(turning_candidate_open(TurningParams(beta1=1.0, b=3.0), n=129,
                                                L=15.0, tilt=0.05))
    else:
        state = SimState(small_graph(64, 1e-1, 2))
    calls = []
    real_rhs, real_step = stepping._rhs, stepping.step_dp54
    monkeypatch.setattr(stepping, "_rhs", lambda *args: calls.append(1) or real_rhs(*args))
    traj, final = run(state, 0.3, 0.1, stop_at_turning=True)
    stats = traj.stats
    trials = stats.accepted_steps + stats.rejected_steps
    reused = trials - 1 if topology == "open" else stats.rejected_steps
    assert stats.rejected_steps > 0
    assert len(calls) == stats.rhs_evaluations == STAGES * trials - reused

    monkeypatch.setattr(stepping, "step_dp54", lambda st, h, k0=None: real_step(st, h))
    ref, ref_final = run(state, 0.3, 0.1, stop_at_turning=True)
    assert ref.stats.rhs_evaluations == STAGES * trials
    assert (ref.stats.accepted_steps, ref.stats.rejected_steps) == (
        stats.accepted_steps, stats.rejected_steps)
    assert final.t == ref_final.t and np.array_equal(final.curve.z1, ref_final.curve.z1)
    assert len(traj.snapshots) == len(ref.snapshots)
    for (t, c, _), (t_ref, c_ref, _) in zip(traj.snapshots, ref.snapshots):
        assert t == t_ref
        assert np.array_equal(c.z1, c_ref.z1) and np.array_equal(c.z2, c_ref.z2)
    assert np.array_equal(traj.diagnostics, ref.diagnostics, equal_nan=True)
    assert [(e.t, e.kind) for e in traj.events.events] == [
        (e.t, e.kind) for e in ref.events.events]


def test_brent_root_to_tolerance_with_few_evaluations():
    """The Turning root finder on a smooth bracket: within TURNING_XTOL of
    the root in 7 evaluations inside it (bisection alone would take 47),
    and a zero at the bracket end returned as is."""
    calls = []

    def f(t):
        calls.append(t)
        return 2.0 - t ** 3

    root = stepping._brent(f, 1.0, 2.0, f(1.0), f(2.0))
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= stepping.TURNING_XTOL
    assert len(calls) - 2 <= 8
    assert stepping._brent(f, 0.0, 1.5, 1.0, 0.0) == 1.5


def test_run_samples_at_t0_plus_k_dt_then_t_end():
    """Samples sit at t0 + k dt, then at an off-grid t_end; the run ends
    there exactly, whatever steps the controller took."""
    st = SimState(small_graph(), t=0.5)
    traj, final = run(st, 0.5 + 0.123, 0.02)
    assert traj.times == pytest.approx(0.5 + np.r_[0.02 * np.arange(7), 0.123], abs=1e-15)
    assert final.t == 0.5 + 0.123
    assert traj.stats.samples == 8 and 1 <= traj.stats.accepted_steps < 7


def test_nan_rhs_drives_step_below_floor(monkeypatch):
    """An RHS that turns NaN makes every trial step fail; the step shrinks
    below MIN_STEP_RATIO * dt and run raises BlowUpError with the samples
    taken so far, after a bounded number of trials."""
    from turnwave import stepping
    calls = []
    real = stepping._rhs

    def nan_after_two_steps(*args):
        calls.append(1)
        assert len(calls) < 200, "the controller does not give up"
        zt, wt = real(*args)
        return (zt * np.nan if len(calls) > 2 * STAGES else zt), wt

    monkeypatch.setattr(stepping, "_rhs", nan_after_two_steps)
    with pytest.raises(BlowUpError, match="below") as err:
        run(SimState(small_graph()), 10.0, 1e-2)
    traj = err.value.trajectory
    assert traj.stats.accepted_steps == 2 and traj.stats.rejected_steps > 0
    assert len(traj.snapshots) == traj.stats.samples > 1
    assert traj.times[-1] <= err.value.state.t


def test_advance_reaches_target_time():
    st = SimState(small_graph())
    out, _ = advance(st, 0.123, 0.02)  # not divisible by dt
    assert abs(out.t - 0.123) < 1e-12


def test_advance_continues_its_controller_from_the_returned_step():
    """Passing the returned trial step back as dt continues one controller
    from interval to interval.  After the first interval, which grows the
    step from dt, each interval takes one step, where restarting at dt
    takes as many as the first; the end states agree to within the step
    tolerance."""
    start = SimState(small_graph(64, 1e-1, 2))
    first = StepStats()
    a, h = advance(start, 0.01, 1e-4, first)
    assert first.accepted_steps > 1 and h > 0.01
    b, restarted, continued = a, StepStats(), StepStats()
    for _ in range(7):
        a, _ = advance(a, 0.01, 1e-4, restarted)
        b, h = advance(b, 0.01, h, continued)
    assert restarted.accepted_steps == 7 * first.accepted_steps
    assert continued.accepted_steps == 7 and continued.rejected_steps == 0
    assert np.max(np.abs(a.curve.z2 - b.curve.z2)) < 10 * STEP_TOL


def test_krasny_filter_keeps_solution_clean():
    st = SimState(small_graph())
    out, _ = advance(st, 0.2, 1e-2)
    coeffs = np.abs(np.fft.fft(out.curve.z2)) / 64
    peak = coeffs.max()
    # no partially-contaminated band: every mode is either resolved or at
    # the roundoff floor the filter keeps re-zeroing
    assert np.all((coeffs < 1e-15 * peak) | (coeffs > 1e-13 * peak))


def test_run_records_monotone_diagnostics():
    st = SimState(small_graph())
    traj, final = run(st, 0.05, 1e-2)
    assert np.all(np.diff(traj.times) > 0)
    assert [row[0] for row in traj.diagnostics] == list(traj.times)
    assert final.t == pytest.approx(0.05)
    assert traj.events.kinds() == []


@pytest.mark.parametrize("topology", ["periodic", "open"])
def test_run_keeps_each_samples_slope_sup_out_of_the_csv(tmp_path, topology):
    """run keeps the graph_slope_sup that it computes for each recorded
    sample, the float that graph_slope_sup gives that snapshot alone, on
    the trajectory; diagnostics.csv keeps its columns."""
    if topology == "periodic":
        cand = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128, tilt=0.02)
    else:
        cand = turning_candidate_open(TurningParams(), n=129, L=10.0)
    traj, _ = run(SimState(cand), 0.02, 1e-3)
    assert len(traj.slope_sups) == len(traj.snapshots) == len(traj.diagnostics) > 10
    for sup, (_, curve, _) in zip(traj.slope_sups, traj.snapshots):
        assert type(sup) is float
        assert sup == graph_slope_sup(Curve(curve.topology, curve.alpha, curve.z1, curve.z2,
                                            L=curve.L))
    traj.write_dir(tmp_path)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",") == DIAG_COLUMNS


def test_run_emits_turning_event():
    params = TurningParams(beta1=1.5, b=3.0)
    cand = turning_candidate_periodic(params, n=256, tilt=0.02)
    st = SimState(cand)
    traj, final = run(st, 0.2, 1e-3, stop_at_turning=True)
    ev = traj.events.first(TURNING)
    assert ev is not None and 0.0 < ev.t <= final.t + 1e-12
    # interpolated crossing: min_slope positive before, negative at stop
    ms = [row[DIAG_COLUMNS.index("min_slope")] for row in traj.diagnostics]
    assert ms[0] > 0 and ms[-1] <= 0


def test_initial_state_events_fire_at_t0(monkeypatch):
    """The initial state goes through the same event checks as every later
    sample: a datum whose graph slope (2e-3) already exceeds the threshold
    logs GraphBlowup at t0, although the decaying flow never exceeds it
    again."""
    monkeypatch.setattr(stepping, "GRAPH_BLOWUP_THRESHOLD", 1.5e-3)
    traj, _ = run(SimState(small_graph()), 0.05, 1e-2)
    assert [(e.t, e.kind) for e in traj.events.events] == [(0.0, GRAPH_BLOWUP)]


def test_graph_blowup_needs_a_graph():
    """A curve with d_alpha z1 < 0 somewhere has graph_slope_sup = inf; it
    is not a graph, so GraphBlowup does not fire and events.json stays
    strict JSON."""
    a = periodic_grid(64)
    turned = Curve("periodic", a, a - 1.2 * np.sin(a), 0.8 * np.sin(a))
    traj, _ = run(SimState(turned), 0.0, 1e-3)
    assert traj.stats.samples == 1
    assert GRAPH_BLOWUP not in traj.events.kinds()


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


@pytest.mark.parametrize("problem", ["periodic", "open", "waterwave"])
def test_read_dir_inverts_write_dir(tmp_path, problem):
    """Trajectory.read_dir gives back what write_dir wrote: every snapshot
    (time, topology, L, nodes and amplitude) and every diagnostics row as
    the same floats, an empty t_star as nan, and the same events; a curve
    appended after the run comes back last."""
    if problem == "open":
        state = SimState(turning_candidate_open(TurningParams(), n=129, L=10.0))
    elif problem == "waterwave":
        state = SimState(small_graph(), 1e-3 * np.sin(periodic_grid(64)))
    else:
        state = SimState(turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128,
                                                    tilt=0.02))
    traj, final = run(state, 0.2, 1e-2, stop_at_turning=True)
    traj.snapshots.append((final.t + 1.0, final.curve, final.omega))
    traj.write_dir(tmp_path)
    back = Trajectory.read_dir(tmp_path)
    assert len(back.snapshots) == len(traj.snapshots)
    for (t, curve, omega), (t_back, curve_back, omega_back) in zip(traj.snapshots,
                                                                   back.snapshots):
        assert t_back == t and type(t_back) is float
        assert (curve_back.topology, curve_back.L) == (curve.topology, curve.L)
        for got, want in zip((curve_back.alpha, curve_back.z1, curve_back.z2, omega_back),
                             (curve.alpha, curve.z1, curve.z2, omega)):
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == np.asarray(want).tobytes()
    assert np.array_equal(back.diagnostics, traj.diagnostics, equal_nan=True)
    t_star = DIAG_COLUMNS.index("t_star")
    assert np.isnan(back.diagnostics[0][t_star])
    assert back.events == traj.events
    turned = TURNING in back.events.kinds()
    assert turned == (problem != "waterwave") == (not np.isnan(back.diagnostics[-1][t_star]))


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
    out, _ = advance(st, 3.0, 5e-3)
    assert np.max(np.abs(out.curve.z2)) < 3 * eps


def per_sample_reference(state, t_end, dt):
    """The samples of run(state, t_end, dt) without a stop, taken one at a
    time through step.at(t), _filtered and the functions on single curves:
    (diagnostics rows, snapshots, samples per accepted step)."""
    times = stepping._sample_times(state.t, t_end, dt)
    rows, snaps, per_step = [], [], []
    prev, covering, t_star = None, [], float("nan")

    def take(sample):
        nonlocal prev, covering, t_star
        curve = sample.curve
        periodic = curve.topology == "periodic"
        d = derivative(curve, 1)
        report = min_slope(curve, d=d)
        sigma = sample.consts.rho_jump * d[0]
        period = 2.0 * np.pi if periodic else 2.0 * curve.L
        h4 = float(np.sqrt(discrete_h4_norm(curve.z1 - curve.alpha, period) ** 2
                           + discrete_h4_norm(curve.z2, period) ** 2))
        mean_f = float(np.mean(curve.z2 * d[0]) if periodic
                       else np.trapezoid(curve.z2 * d[0], curve.alpha))
        if np.isnan(t_star) and prev is not None and prev[1] > 0.0 >= report.min_slope:
            t_star = stepping._locate_turning(covering, *prev, sample.t, report.min_slope)
        prev = (sample.t, report.min_slope)
        rows.append([sample.t, report.min_slope, arc_chord(curve, d), float(sigma.min()),
                     h4, mean_f, t_star])
        snaps.append((sample.t, curve, sample.omega))

    take(state)
    k = 1
    for step, end, _ in stepping._accepted_steps(state, times[-1], dt, StepStats()):
        covering.append((end.t, step))
        per_step.append(0)
        while k < len(times) and times[k] <= end.t:
            take(end if times[k] == end.t else stepping._filtered(step.at(times[k])))
            per_step[-1] += 1
            k += 1
            covering = [(end.t, step)]
    return rows, snaps, per_step


def same_bits(x, y):
    return np.asarray(x, float).tobytes() == np.asarray(y, float).tobytes()


@pytest.mark.parametrize("case", ["open", "open-zero-chord", "periodic", "water"])
def test_stacked_samples_equal_per_sample_reference(monkeypatch, case):
    """run diagnoses the samples of a step as stacks of at most
    STACK_NODES // N, here 8 so that steps cover more samples than one
    stack; every diagnostics column and snapshot is bit for bit the
    one-sample-at-a-time reference, the initial sample, steps that cover
    more samples than one stack and stacks that end on a step's end state
    included.  In
    the zero-chord case one dense-output sample inside a group gets two
    coincident nodes: its sup_F is inf, and every other sample keeps its
    value."""
    if case.startswith("open"):
        state = SimState(turning_candidate_open(TurningParams(beta1=1.0, b=3.0), n=129,
                                                L=15.0, tilt=0.05))
        t_end, dt = 0.06, 1e-3
    elif case == "periodic":
        state, t_end, dt = SimState(small_graph(64, 1e-1, 2)), 0.3, 2e-3
    else:
        state = SimState(small_graph(64, 5e-2, 2), np.zeros(64))
        t_end, dt = 0.2, 2e-3
    if case == "open-zero-chord":
        t_bad = 0.04
        real_filtered = stepping._filtered

        def coincide(st):
            st = real_filtered(st)
            hit = np.atleast_1d(st.t) == t_bad
            if hit.any():
                z1, z2 = np.atleast_2d(st.curve.z1), np.atleast_2d(st.curve.z2)
                z1[hit, 90], z2[hit, 90] = z1[hit, 30], z2[hit, 30]
            return st

        monkeypatch.setattr(stepping, "_filtered", coincide)
    monkeypatch.setattr(stepping, "STACK_NODES", 8 * state.curve.n)
    rows, snaps, per_step = per_sample_reference(state, t_end, dt)
    assert max(per_step) > 8
    traj, final = run(state, t_end, dt)
    assert traj.stats.samples == len(rows) == len(traj.diagnostics)
    assert final.t == t_end == rows[-1][0]
    assert same_bits(traj.diagnostics, rows)
    for (t, c, omega), (t_ref, c_ref, omega_ref) in zip(traj.snapshots, snaps, strict=True):
        assert t == t_ref and same_bits(c.z1, c_ref.z1) and same_bits(c.z2, c_ref.z2)
        assert (omega is None) == (omega_ref is None)
        assert omega is None or same_bits(omega, omega_ref)
    sup_F = np.array(traj.diagnostics)[:, DIAG_COLUMNS.index("sup_F")]
    if case == "open-zero-chord":
        assert list(np.flatnonzero(np.isinf(sup_F))) == [round(t_bad / dt)]
    else:
        assert np.all(np.isfinite(sup_F))


def test_sample_groups_bound_the_memory_of_run(monkeypatch):
    """The samples of a step are stacked at most STACK_NODES // N at a
    time, so the traced peak of run above what its trajectory keeps does
    not grow when a quarter of the sampling interval puts four times the
    samples in each step (periodic, N = 512, where both runs fill stacks
    of 32; stacking all the samples of a step raises it 3.6-fold)."""
    import tracemalloc
    state = SimState(small_graph(512, 1e-1, 2))
    run(state, 0.01, 1e-3)   # caches
    sizes = []
    real_stack = stepping._stack

    def stack(parts):
        group = real_stack(parts)
        sizes.append(len(group.t))
        return group

    monkeypatch.setattr(stepping, "_stack", stack)

    def transient(dt):
        sizes.clear()
        tracemalloc.start()
        try:
            traj, _ = run(state, 0.1, dt)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(sizes) == stepping.STACK_NODES // 512
        return traj.stats.samples, peak - kept

    (coarse_samples, coarse), (fine_samples, fine) = transient(5e-4), transient(1.25e-4)
    assert fine_samples == 4 * coarse_samples - 3
    assert fine <= 1.1 * coarse


def spy(monkeypatch, name, record):
    """Patch stepping.<name> to pass each stack it is given (_diagnose) or
    returns (_stack) to record first."""
    real = getattr(stepping, name)
    if name == "_stack":
        def patched(parts):
            group = real(parts)
            record(group)
            return group
    else:
        def patched(group, *args):
            record(group)
            return real(group, *args)
    monkeypatch.setattr(stepping, name, patched)


def test_stop_inside_a_group_records_and_counts_up_to_the_stop(monkeypatch):
    """A run that stops at a sample inside the stack of a step's samples
    records that sample last: the later samples of the stack are neither
    diagnosed, recorded nor counted."""
    stacks, groups = [], []
    spy(monkeypatch, "_stack", lambda group: stacks.append(group.t))
    spy(monkeypatch, "_diagnose", lambda group: groups.append(group.t))
    cand = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=256, tilt=0.02)
    traj, final = run(SimState(cand), 0.2, 1e-3, stop_at_turning=True)
    assert final.t in stacks[-1] and final.t < stacks[-1][-1]
    assert traj.stats.samples == len(traj.diagnostics) == len(traj.snapshots)
    assert traj.diagnostics[-1][0] == traj.snapshots[-1][0] == final.t == groups[-1][-1]
    assert traj.stats.samples == sum(len(t) for t in groups)


def test_run_diagnoses_no_sample_past_the_stop(monkeypatch):
    """A run that stops at Turning diagnoses no sample past the one where
    it stops, although the stack of the step that covers that sample holds
    later ones, and no stack holds more than STACK_NODES // N samples.  It
    records the run without a stop up to the sample at which Turning
    fires, bit for bit, and its events up to there."""
    cand = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=256, tilt=0.02)
    full, _ = run(SimState(cand), 0.2, 1e-3)
    t_stop = full.events.first(TURNING).payload["bracket"][1]
    stacks, diagnosed = [], []
    spy(monkeypatch, "_stack", lambda group: stacks.append(group.t))
    spy(monkeypatch, "_diagnose", lambda group: diagnosed.append(group.t))
    traj, final = run(SimState(cand), 0.2, 1e-3, stop_at_turning=True)
    assert final.t == t_stop
    assert t_stop in stacks[-1] and t_stop < stacks[-1][-1]
    assert max(ts[-1] for ts in diagnosed) == t_stop
    assert max(len(ts) for ts in stacks) <= stepping.STACK_NODES // cand.n
    assert same_bits(traj.diagnostics, full.diagnostics[:len(traj.diagnostics)])
    assert traj.events.events == [e for e in full.events.events if e.t <= t_stop]


def test_each_diagnosed_stack_takes_its_slope_minima_and_sigma_once(monkeypatch):
    """run takes min_slope of each stack once, on the whole stack, and
    sigma_muskat once, on the members it diagnoses; the stop cuts the last
    stack between the two.  The single curves of _locate_turning's Brent
    probes are not stacks and are not counted."""
    built, diagnosed, slopes, sigmas = [], [], [], []
    spy(monkeypatch, "_stack", lambda group: built.append(len(group.t)))
    spy(monkeypatch, "_diagnose", lambda group: diagnosed.append(len(group.t)))
    for name, record in (("min_slope", slopes), ("sigma_muskat", sigmas)):
        def patched(curve, *args, real=getattr(stepping, name), record=record, **kwargs):
            if np.ndim(curve.z1) == 2:
                record.append(len(curve.z1))
            return real(curve, *args, **kwargs)
        monkeypatch.setattr(stepping, name, patched)
    cand = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=256, tilt=0.02)
    traj, _ = run(SimState(cand), 0.2, 1e-3, stop_at_turning=True)
    assert TURNING in traj.events.kinds()
    assert slopes == built and sigmas == diagnosed
    assert diagnosed[:-1] == built[:-1] and diagnosed[-1] < built[-1]
    assert sum(diagnosed) == traj.stats.samples
