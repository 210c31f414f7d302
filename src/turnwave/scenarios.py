"""Scenario pipelines: each canonical experiment as a single driver function.

Every scenario consumes a validated ScenarioConfig, computes its report
and returns through `_finish`, the one writer of a run directory under
config.output_dir.  For a scenario that samples a trajectory it writes
the snapshots (every numerics.snapshot_cadence-th sample and the last),
diagnostics.csv and events.json, then the scenario's own files,
metrics.json (step counts and, per ck_solve call, its time grid and
Picard sweeps), config.txt and report.json, and finally the
interface, min_slope and sigma_min plots, drawn from the trajectory in
memory by the drawer that render_trajectory uses on the files.
The returned ScenarioResult's exit_code follows the CLI convention: 0
success, 3 numerical failure (the directory keeps the partial
trajectory that a BlowUpError carries), 4 certificate failure.  Config
errors (exit 2) are raised before any pipeline starts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .closures import ClosureIterationError, PhysicalConstants
from .config import ConfigError, ScenarioConfig, dump_config, load_config
from .curve import derivative, graph_curve, min_slope, resample
from .diagnostics import (rt_report, sigma10, sigma10_checklist, sigma_muskat,
                          verify_weighted_rt, weight_h, weight_hbar)
from .initial_data import (DeltaTooLargeError, dv1_at_zero_periodic, open_certificate,
                           turning_candidate_open, turning_candidate_periodic,
                           turning_certificate, waterwave_datum)
from .stepping import (BlowUpError, DIAG_COLUMNS, GRAPH_BLOWUP, RT_RUN_LENGTH,
                       RT_SIGN_CHANGE, TURNING, SimState, StepStats, Trajectory, _brent,
                       _diagnose, advance, remove_run_files, run)
from .singular import QuadratureError
from .strip import (CKResult, InsufficientAnalyticityError, RegimeExitError,
                    ck_solve, extend_to_strip)
from .spectral import fourier_derivative
from .svg import render_curve, render_series

# fixed stage parameters of the breakdown pipeline (the backward
# analyticity radius is generous because the candidate is band-limited)
BACKWARD_STRIP_R0 = 0.1
CK_COMPARE_INTERVALS = 32   # ck-compare compares at k T / 32, k = 0 .. 32


@dataclass
class ScenarioResult:
    scenario: str
    exit_code: int
    report: dict = field(default_factory=dict)
    message: str = ""


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _finish(cfg: ScenarioConfig, report: dict, message: str, traj=None,
            files=None, metrics=None) -> ScenarioResult:
    """Write the run directory, with every file of an earlier run removed
    (stepping.remove_run_files): the thinned trajectory, `files` (name ->
    text), metrics.json, config.txt, report.json and the trajectory's
    plots.  metrics.json holds the step counts of the trajectory's run
    under "run" and the scenario's own sections in `metrics` (name -> JSON
    value), when there are any.  The exit code is 3 for a report that
    carries an "error", else 0 or 4 from report["pass"]."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    remove_run_files(out)
    metrics = dict(metrics or {})
    if traj is not None:
        traj.write_dir(out, cfg.numerics.snapshot_cadence)
        metrics["run"] = asdict(traj.stats)
    if metrics:
        _write(os.path.join(out, "metrics.json"),
               json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    for name, text in (files or {}).items():
        _write(os.path.join(out, name), text)
    _write(os.path.join(out, "config.txt"), dump_config(cfg))
    _write(os.path.join(out, "report.json"), json.dumps(report, indent=1) + "\n")
    if traj is not None:
        if not traj.snapshots:
            raise FileNotFoundError(f"{out}: no snapshot files")
        _draw_plots(out, traj, cfg.constants())
    code = 3 if "error" in report else (0 if report["pass"] else 4)
    return ScenarioResult(cfg.scenario, code, report, message)


def _picard_metrics(res: CKResult) -> dict:
    """How a ck_solve call converged: its collocation nodes (Fourier
    modes), the time panels it chose and their time-error estimate, its G
    evaluations, Picard sweeps, whether the last sweep met the tolerance,
    and the strip distance between successive iterates."""
    return {"n": res.curves[0].n, "panels": len(res.times) - 1,
            "time_error": res.time_error, "g_evaluations": res.g_evaluations,
            "sweeps": res.iterations, "converged": res.converged,
            "contraction_history": list(map(float, res.contraction_history))}


def _unconverged(name: str, res: CKResult) -> str:
    """The message of a run that stops at a ck_solve call that did not
    converge."""
    return (f"{name} solve did not converge in {res.iterations} Picard sweeps "
            f"(last strip distance {res.contraction_history[-1]:.3g})")


def _negative_run(res: CKResult, t, alpha, consts) -> int:
    """sigma_muskat(rc, consts, derivative(rc, 1)).longest_negative_run of
    rc = res.at(t).real_curve(), bit for bit, from the z1 row alone: the
    operations of derivative on that row, each per row, and rt_report."""
    z1 = res.z1_at(t)
    sigma = consts.rho_jump * (fourier_derivative(z1 - alpha) + 1.0)
    return rt_report(alpha, sigma, True).longest_negative_run


def _locate_rt_sign_change(res: CKResult, nodes: list, j: int, consts):
    """(time, real curve, RT report) where the continuation's longest
    negative sigma run first reaches RT_RUN_LENGTH, between the nodes j-1
    and j; nodes holds (real curve, RT report) at every node.  Brent's
    method finds the jump of RT_RUN_LENGTH - 1/2 - run(res.at(t)), with
    each probe's run from _negative_run; the earliest time evaluated past
    it is returned, within about 1e-14, and only its curve and report are
    built."""
    alpha = nodes[j][0].alpha
    hits = [(res.times[j], nodes[j][1].longest_negative_run)]

    def excess(t):
        hits.append((t, _negative_run(res, t, alpha, consts)))
        return RT_RUN_LENGTH - 0.5 - hits[-1][1]

    _brent(excess, res.times[j - 1], res.times[j], *(
        RT_RUN_LENGTH - 0.5 - sig.longest_negative_run for _, sig in nodes[j - 1:j + 1]))
    t, _ = best = min((hit for hit in hits if hit[1] >= RT_RUN_LENGTH),
                      key=lambda hit: hit[0])
    if best is hits[0]:
        return (t,) + nodes[j]
    rc = res.at(t).real_curve()
    return t, rc, sigma_muskat(rc, consts, derivative(rc, 1))


def _fit_decay_rate(times, amplitudes):
    """Least-squares slope of log|amplitude| against time."""
    amp = np.asarray(amplitudes, dtype=float)
    keep = amp > 1e-300
    slope, _ = np.polyfit(np.asarray(times)[keep], np.log(amp[keep]), 1)
    return float(-slope)


def _fit_frequency(series, dt):
    """Angular frequency of a standing oscillation sampled every dt: a
    single cosine mode satisfies x_{n+1} + x_{n-1} = 2 cos(omega dt) x_n,
    and c = 2 cos(omega dt) is the linear least-squares solution of that
    relation over all samples (Prony's method for one mode)."""
    x = np.asarray(series, dtype=float)
    c = np.dot(x[1:-1], x[2:] + x[:-2]) / np.dot(x[1:-1], x[1:-1])
    return float(np.arccos(c / 2.0) / dt)


# --- scenarios ---------------------------------------------------------------

def muskat_linear(cfg: ScenarioConfig) -> ScenarioResult:
    """Modal decay of a small periodic Muskat graph versus the analytic rate
    darcy_factor * |k| / 2."""
    consts = cfg.constants()
    k = cfg.wave.k
    eps = cfg.wave.epsilon
    curve = graph_curve(eps * np.cos(k * np.linspace(
        0.0, 2.0 * np.pi, cfg.grid.n, endpoint=False)))
    traj, _ = run(SimState(curve, consts=consts), cfg.numerics.t_end, cfg.numerics.dt)
    times = traj.times
    amps = [2.0 * abs(np.fft.fft(c.z2)[k]) / c.n for _, c, _ in traj.snapshots]
    measured = _fit_decay_rate(times, amps)
    theory = consts.darcy_factor * k / 2.0
    rel = abs(measured - theory) / theory
    report = {"k": k, "measured_rate": measured, "theory_rate": theory,
              "relative_error": rel, "pass": bool(rel < 5e-3)}
    plot = render_series(times, np.log(np.maximum(amps, 1e-300)), f"log|f_hat_{k}|")
    return _finish(cfg, report, f"decay rate {measured:.6g} vs {theory:.6g}",
                   traj, {"mode_amplitude.svg": plot})


def muskat_turning(cfg: ScenarioConfig) -> ScenarioResult:
    """Open-interface turning: certificate on the exact candidate, then a
    forward run from the tilted unfolding until the Turning event."""
    consts = cfg.constants()
    params = cfg.turning_params()
    cert = open_certificate(params, cfg.grid.n, cfg.grid.L)
    tilted = turning_candidate_open(params, n=cfg.grid.n, L=cfg.grid.L,
                                    tilt=cfg.turning.tilt)
    traj, _ = run(SimState(tilted, consts=consts), cfg.numerics.t_end,
                  cfg.numerics.dt, stop_at_turning=True)
    ev = traj.events.first(TURNING)
    report = {
        "certificate": {"passed": cert.passed, "min_slope": cert.min_slope,
                        "dz2_at_zero": cert.dz2_at_zero,
                        "dv1_at_zero": cert.dv1_at_zero},
        "turning_time": ev.t if ev else None,
        "pass": bool(cert.passed and ev is not None),
    }
    msg = (f"t* = {ev.t:.6g}" if ev else "no Turning event before t_end")
    return _finish(cfg, report, msg, traj)


def muskat_breakdown(cfg: ScenarioConfig) -> ScenarioResult:
    """Periodic breakdown: certificate -> backward analytic construction of
    a graph datum -> forward run to Turning -> strip continuation past
    turnover to strip.T, on whose dense output the RT sign change (sigma
    < 0 on >= 3 nodes) is located.  The continuation curve at the sign
    change is written as the last snapshot.  A backward or continuation
    solve that returns unconverged fails the run (exit 4) before its
    curves are used.  The sign-change time is a grid quantity: the time
    at which {sigma < 0} first spans RT_RUN_LENGTH nodes, t* plus about
    114/N^2 at the bundled datum, which tends to t* as N grows (the time
    written also counts the handoff time twice; see below)."""
    consts = cfg.constants()
    params = cfg.turning_params()
    pref = consts.periodic_prefactor
    candidate = turning_candidate_periodic(params, n=cfg.grid.n)
    dv1 = dv1_at_zero_periodic(candidate, pref)
    cert = turning_certificate(candidate, dv1)
    report = {"certificate": {"passed": cert.passed, "dv1_at_zero": dv1,
                              "dz2_at_zero": cert.dz2_at_zero}}
    if not cert.passed:
        report["pass"] = False
        return _finish(cfg, report, "turning certificate failed")

    # backward-in-time analytic continuation produces a strict graph datum
    sc0 = extend_to_strip(candidate, BACKWARD_STRIP_R0, t=0.0)
    back = ck_solve(sc0, cfg.wave.delta, -pref)
    picard = {"backward": _picard_metrics(back)}
    metrics = {"ck_solve": picard}
    if not back.converged:
        report["pass"] = False
        return _finish(cfg, report, _unconverged("backward", back), metrics=metrics)
    datum = back.curves[-1].real_curve()
    traj, final = run(SimState(datum, consts=consts), cfg.numerics.t_end,
                      cfg.numerics.dt, stop_at_turning=True)
    report["datum_min_slope"] = traj.diagnostics[0][1]
    ev = traj.events.first(TURNING)
    if ev is None:
        report["pass"] = False
        return _finish(cfg, report, "forward run reached no Turning event", traj,
                       metrics=metrics)
    report["turning_time"] = ev.t

    # handoff: resample so the truncated Fourier tail is exactly zero,
    # then continue on a linearly shrinking strip of analyticity
    handoff = resample(final.curve, cfg.strip.M)
    sc = extend_to_strip(handoff, cfg.strip.r0, t=final.t)
    res = ck_solve(sc, cfg.strip.T, pref)
    picard["continuation"] = _picard_metrics(res)
    if not res.converged:
        report["pass"] = False
        return _finish(cfg, report, _unconverged("continuation", res), traj, metrics=metrics)

    # every node to T.  res.times already include the handoff time, so
    # final.t + tt counts it twice, as the seed-0 benchmark reference does
    real = [c.real_curve() for c in res.curves]
    ds = [derivative(rc, 1) for rc in real]
    nodes = [(rc, sigma_muskat(rc, consts, d)) for rc, d in zip(real, ds)]
    files = {"continuation.csv": "t,min_slope,sigma_min,negative_run\n" + "".join(
        f"{final.t + tt:.17g},{min_slope(rc, d=d).min_slope:.17g},{sig.min_sigma:.17g},"
        f"{sig.longest_negative_run}\n" for tt, (rc, sig), d in zip(res.times, nodes, ds))}
    j = next((j for j, (_, sig) in enumerate(nodes)
              if sig.longest_negative_run >= RT_RUN_LENGTH), None)
    if j is None:
        report["pass"] = False
        return _finish(cfg, report, "no RT sign change within continuation horizon",
                       traj, files, metrics)

    tt, rc, sig = _locate_rt_sign_change(res, nodes, j, consts) if j else (
        (res.times[0],) + nodes[0])
    t_rt = final.t + tt
    traj.snapshots.append((t_rt, rc, None))
    traj.events.add(t_rt, RT_SIGN_CHANGE, nodes=sig.longest_negative_run,
                    sigma_min=float(sig.min_sigma),
                    intervals=[list(map(float, iv)) for iv in sig.negative_intervals],
                    bracket=[final.t + res.times[max(j - 1, 0)], final.t + res.times[j]])
    report["rt_sign_change_time"] = t_rt
    report["rt_negative_nodes"] = sig.longest_negative_run
    report["event_order"] = traj.events.kinds()
    report["pass"] = True
    return _finish(cfg, report, f"Turning at {ev.t:.6g}, RT sign change at {t_rt:.6g}",
                   traj, files, metrics)


def waterwave_linear(cfg: ScenarioConfig) -> ScenarioResult:
    """Standing-wave frequency of a small water-wave graph versus the
    dispersion value sqrt(g |k|)."""
    consts = cfg.constants()
    k = cfg.wave.k
    eps = cfg.wave.epsilon
    alpha = np.linspace(0.0, 2.0 * np.pi, cfg.grid.n, endpoint=False)
    curve = graph_curve(eps * np.cos(k * alpha))
    traj, _ = run(SimState(curve, np.zeros(cfg.grid.n), consts=consts),
                  cfg.numerics.t_end, cfg.numerics.dt)
    times = traj.times
    series = [np.real(np.fft.fft(c.z2)[k]) * 2.0 / c.n
              for _, c, _ in traj.snapshots]
    theory = float(np.sqrt(consts.g * abs(k)))
    # run samples at 0 + k dt (so this test is exact) and appends t_end
    # when t_end is off that grid
    on_grid = times[-1] == (len(times) - 1) * cfg.numerics.dt
    measured = _fit_frequency(series if on_grid else series[:-1], cfg.numerics.dt)
    rel = abs(measured - theory) / theory
    report = {"k": k, "measured_frequency": measured, "theory_frequency": theory,
              "relative_error": rel, "pass": bool(rel < 1e-2)}
    return _finish(cfg, report, f"frequency {measured:.6g} vs {theory:.6g}", traj,
                   {"mode_series.svg": render_series(times, series, f"Re f_hat_{k}")})


def waterwave_turning(cfg: ScenarioConfig) -> ScenarioResult:
    """Water-wave turning from a backward-constructed graph datum: the graph
    slope sup |f_alpha| diverges and the interface leaves the graph class at
    the Turning event.  The round trip compares the forward run's sample
    round(delta / dt) with the turning curve; a run that stops before that
    sample fails.  as_graph_fails_at_turning (min d_alpha z1 <= 0 on the
    last sample) restates the stop rule: the run stops at the first
    sample where Turning fires, which is that same test, so the key is
    true whenever Turning fires.  It stays until a growth fit of
    sup |f_alpha| can replace it as criterion 7's check."""
    consts = cfg.constants()
    params = cfg.turning_params()
    star = turning_candidate_periodic(params, n=cfg.grid.n)
    backward = StepStats()
    datum, omega0 = waterwave_datum(star, cfg.wave.delta, consts=consts,
                                    dt=cfg.numerics.dt, stats=backward)
    traj, final = run(SimState(datum, omega0, consts=consts), cfg.numerics.t_end,
                      cfg.numerics.dt, stop_at_turning=True)
    # round trip: the datum integrated forward by delta must recover the
    # turning curve; every sample is in memory, so read it at sample delta/dt
    rt_step = round(cfg.wave.delta / cfg.numerics.dt)
    round_trip = None
    if rt_step < len(traj.snapshots):
        rt_curve = traj.snapshots[rt_step][1]
        round_trip = float(max(np.max(np.abs(rt_curve.z1 - star.z1)),
                               np.max(np.abs(rt_curve.z2 - star.z2))))
    ev_turn = traj.events.first(TURNING)
    ev_blow = traj.events.first(GRAPH_BLOWUP)
    graph_fails = ev_turn is not None and traj.diagnostics[-1][1] <= 0.0
    times = traj.times
    sup_fa = traj.slope_sups
    finite = [v for v in sup_fa if np.isfinite(v)]
    report = {
        "round_trip_error": round_trip,
        "turning_time": ev_turn.t if ev_turn else None,
        "graph_blowup_time": ev_blow.t if ev_blow else None,
        "datum_slope_sup": float(sup_fa[0]),
        "max_finite_slope_sup": max(finite) if finite else None,
        "as_graph_fails_at_turning": graph_fails,
        "pass": bool(ev_turn is not None and ev_blow is not None
                     and ev_blow.t <= ev_turn.t and graph_fails
                     and round_trip is not None and round_trip < 1e-4),
    }
    message = f"turning at {ev_turn.t:.6g}" if ev_turn else "no Turning event"
    if round_trip is None:
        message += f"; the run stopped before sample {rt_step} (t = delta): no round trip"
    plot = render_series(times, np.minimum(sup_fa, 1e6), "sup|f_alpha| (capped)")
    return _finish(cfg, report, message, traj, {"slope_sup.svg": plot},
                   {"advance": asdict(backward)})


def ck_compare(cfg: ScenarioConfig) -> ScenarioResult:
    """Cross-validation of the strip Picard solver, on its dense output,
    against the real-space integrator at fixed times, on stable small
    periodic data.  The solve's Picard record goes to metrics.json."""
    consts = cfg.constants()
    pref = consts.periodic_prefactor
    alpha = np.linspace(0.0, 2.0 * np.pi, cfg.grid.n, endpoint=False)
    curve = graph_curve(0.01 * np.cos(alpha) + 0.005 * np.sin(2 * alpha))
    sc = extend_to_strip(curve, cfg.strip.r0, t=0.0)
    res = ck_solve(sc, cfg.strip.T, pref)

    # one step-size controller through the fixed comparison times, starting
    # at numerics.dt; the strip solution there is its dense output
    times = np.linspace(0.0, cfg.strip.T, CK_COMPARE_INTERVALS + 1)
    state, h = SimState(curve, consts=consts), cfg.numerics.dt
    advanced = StepStats()
    dists = []
    for tt, span in zip(times, np.diff(times, prepend=0.0)):
        state, h = advance(state, span, h, advanced)
        rc = res.at(tt).real_curve()
        dists.append(float(max(np.max(np.abs(rc.z1 - state.curve.z1)),
                               np.max(np.abs(rc.z2 - state.curve.z2)))))
    hist = list(map(float, res.contraction_history))
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1) if hist[i] > 0]
    late = ratios[2:] if len(ratios) > 2 else ratios
    report = {
        "max_node_distance": max(dists),
        "max_late_ratio": max(late) if late else None,
        "pass": bool(res.converged and max(dists) < 1e-6
                     and late and max(late) < 0.9),
    }
    table = "t,node_distance\n" + "".join(
        f"{tt:.17g},{d:.17g}\n" for tt, d in zip(times, dists))
    return _finish(cfg, report, f"max node distance {max(dists):.3g}",
                   files={"ck_compare.csv": table},
                   metrics={"advance": asdict(advanced), "ck_solve": _picard_metrics(res)})


def rt_verify(cfg: ScenarioConfig) -> ScenarioResult:
    """Pointwise RT verifiers on the unperturbed periodic candidate: the
    sigma10 checklist at (x, t) = (0, 0) and the weighted inequalities on
    their time windows."""
    consts = cfg.constants()
    wp = cfg.weight_params()
    params = cfg.turning_params()
    candidate = turning_candidate_periodic(params, n=cfg.grid.n)
    dt = wp.tau / 200.0
    traj, _ = run(SimState(candidate, consts=consts), wp.tau, dt)
    times = traj.times
    curves = [c for _, c, _ in traj.snapshots]
    checklist = sigma10_checklist(curves, times)
    sig_grid = np.array([sigma10(c) for c in curves])
    weighted = verify_weighted_rt(sig_grid, candidate.alpha, times, wp)
    nonnegative = bool(np.all(weight_h(candidate.alpha, wp.tau, wp) >= 0) and np.all(
        weight_hbar(candidate.alpha, 0.5 * wp.tau ** 2, wp) >= 0))
    report = {
        "sigma10_checklist": checklist,
        "weighted": asdict(weighted),
        "h_at_origin_final_time": float(weight_h(np.array([0.0]), wp.tau, wp)[0]),
        "weights_nonnegative": nonnegative,
        "pass": bool(checklist["p2"]["pass"] and checklist["p4"]["pass"]
                     and checklist["p5"]["pass"]
                     and checklist["p6"]["value"] < 0.0
                     and checklist["p7"]["value"] > 0.0 and nonnegative),
    }
    plot = render_series(candidate.alpha, sig_grid[0], "sigma10(x, 0)")
    return _finish(cfg, report, "sigma10 checklist and weighted inequalities",
                   traj, {"sigma10.svg": plot})


_PIPELINES = {
    "muskat-linear": muskat_linear,
    "muskat-turning": muskat_turning,
    "muskat-breakdown": muskat_breakdown,
    "waterwave-linear": waterwave_linear,
    "waterwave-turning": waterwave_turning,
    "ck-compare": ck_compare,
    "rt-verify": rt_verify,
}

NUMERICAL_ERRORS = (BlowUpError, RegimeExitError, InsufficientAnalyticityError,
                    ClosureIterationError, DeltaTooLargeError, QuadratureError,
                    FloatingPointError)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run cfg's pipeline.  A numerical failure exits 3 through the same
    writer, with the partial trajectory when the error carries one."""
    try:
        return _PIPELINES[cfg.scenario](cfg)
    except NUMERICAL_ERRORS as exc:
        report = {"error": f"{type(exc).__name__}: {exc}", "pass": False}
        return _finish(cfg, report, f"numerical failure: {exc}",
                       getattr(exc, "trajectory", None))


# --- post-hoc verification and rendering of a run directory ----------------

# the diagnostics columns that a snapshot determines, and the plots of a run
RECOMPUTED = ("min_slope", "sup_F", "sigma_min", "h4_norm", "mean_f")
PLOTS = ("interface", "min_slope", "sigma_min")


def _read_run(path):
    """The trajectory of a run directory and the constants of its
    config.txt.  A run directory comes from outside the program: a
    config.txt that does not load (such as one with a key an older
    turnwave wrote), or whose physics values PhysicalConstants rejects,
    raises ConfigError."""
    config = os.path.join(path, "config.txt")
    traj, cfg = Trajectory.read_dir(path), load_config(config)
    try:
        return traj, cfg.constants()
    except ValueError as exc:
        raise ConfigError(f"{config}: physics.{exc}") from exc


def verify_trajectory(path) -> ScenarioResult:
    """Consistency checks on a run directory (_read_run): events
    well-ordered (Turning precedes RTSignChange when both occur),
    diagnostics time strictly increasing, finite arc-chord constants, and
    each column of RECOMPUTED equal, in every row whose time has a
    snapshot, to the float that the row's writers, min_slope and
    _diagnose, recompute from that snapshot alone (inf for a zero chord;
    nan as nan), one check per column.  The 17-digit round trip of the
    files is exact, so any difference is a diagnostics fault.  A snapshot
    without a row (a curve appended after the run) is skipped."""
    traj, consts = _read_run(path)
    rows, col = {row[0]: row for row in traj.diagnostics}, DIAG_COLUMNS.index
    table = np.reshape(traj.diagnostics, (-1, len(DIAG_COLUMNS)))
    checks = {"time_monotone": bool(np.all(np.diff(table[:, 0]) > 0)),
              "sup_F_finite": bool(np.all(np.isfinite(table[:, col("sup_F")])))}
    checks.update((f"{name}_recomputed", True) for name in RECOMPUTED)
    checked = [(t, curve, omega) for t, curve, omega in traj.snapshots if t in rows]
    for t, curve, omega in checked:
        d = derivative(curve, 1)
        sup_F, rt, h4, mean_f, _ = _diagnose(SimState(curve, omega, t, consts), d)
        values = (min_slope(curve, d=d).min_slope, sup_F, rt.min_sigma, h4, mean_f)
        for name, value in zip(RECOMPUTED, values):
            value, row = float(value), rows[t][col(name)]
            if not (value == row or np.isnan(value) and np.isnan(row)):
                checks[f"{name}_recomputed"] = False
    kinds, first = traj.events.kinds(), traj.events.first
    if TURNING in kinds and RT_SIGN_CHANGE in kinds:
        checks["turning_before_rt"] = kinds.index(TURNING) < kinds.index(RT_SIGN_CHANGE)
        checks["turning_time_before_rt_time"] = first(TURNING).t <= first(RT_SIGN_CHANGE).t
    ok = all(checks.values())
    report = {"checks": checks, "events": kinds, "checked_snapshots": len(checked), "pass": ok}
    return ScenarioResult("verify", 0 if ok else 4, report,
                          "trajectory consistent" if ok else "inconsistent")


def _draw_plots(path, traj, consts: PhysicalConstants) -> list:
    """Draw interface.svg from the last snapshot of traj, and min_slope.svg
    and sigma_min.svg from its diagnostics rows, in a run directory.
    Returns the list of files written."""
    t_last, curve, _ = traj.snapshots[-1]
    rows = np.reshape(traj.diagnostics, (-1, len(DIAG_COLUMNS)))
    written = [os.path.join(path, f"{name}.svg") for name in PLOTS]
    sigma = sigma_muskat(curve, consts, derivative(curve, 1))
    _write(written[0], render_curve(curve.alpha, curve.z1, curve.z2, sigma.negative_intervals,
                                    title=f"interface t={float(t_last):.6g}"))
    for target, name in zip(written[1:], PLOTS[1:]):
        _write(target, render_series(rows[:, 0], rows[:, DIAG_COLUMNS.index(name)], name))
    return written


def render_trajectory(path) -> list:
    """Draw the plots of a run directory from its files with the constants
    of its config.txt (_read_run), through the drawer the run used.  A run
    draws the same plots from memory, byte for byte: snapshots and
    diagnostics are written with 17 significant digits (repr for the
    time), which read back as the same floats.  Returns the list of files
    written."""
    traj, consts = _read_run(path)
    return _draw_plots(path, traj, consts)
