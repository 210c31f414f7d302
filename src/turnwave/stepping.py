"""Explicit RK4 time stepping, spectral filtering, and event detection.

The driver advances a SimState (curve, optional amplitude).  The state
names its problem: a state with an amplitude omega is a periodic water
wave, one without is Muskat on its curve's topology (open line or
period).  After every accepted step the Krasny filter (FILTER_THRESHOLD)
is applied to the Fourier coefficients (periodic case) to suppress
roundoff-seeded instability, and cheap diagnostics are recorded: minimum
slope, arc-chord supremum, Rayleigh-Taylor minimum, H4 size, and the
graph mean.  `run` keeps every accepted step in memory; the trajectory
is thinned to every snapshot_cadence-th step only when it is written
(`Trajectory.write_dir`).

Events:
  Turning        first zero crossing of min d_alpha z1 (time located by
                 linear interpolation between accepted steps, O(dt^2))
  RTSignChange   sigma = (rho2-rho1) d_alpha z1 < 0 on >= RT_RUN_LENGTH
                 consecutive nodes
  GraphBlowup    sup |f_alpha| exceeds GRAPH_BLOWUP_THRESHOLD while still
                 a graph
  ArcChordFailure  sup F(z) reaches ARC_CHORD_MAX or the curve
                 self-intersects at grid resolution
"""

import json
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .closures import PhysicalConstants, waterwave_rhs
from .curve import (Curve, PERIODIC, SelfIntersectionError, arc_chord, derivative,
                    graph_slope_sup, min_slope, save_csv)
from .diagnostics import rt_report
from .singular import muskat_rhs_open, muskat_rhs_periodic
from .spectral import apply_krasny, discrete_h4_norm

TURNING = "Turning"
RT_SIGN_CHANGE = "RTSignChange"
ARC_CHORD_FAILURE = "ArcChordFailure"
GRAPH_BLOWUP = "GraphBlowup"

RT_RUN_LENGTH = 3               # consecutive nodes with sigma < 0
FILTER_THRESHOLD = 1e-12        # Krasny filter level, relative to the top mode
GRAPH_BLOWUP_THRESHOLD = 1e3    # sup |f_alpha| flagged as slope blow-up
ARC_CHORD_MAX = 1e8             # sup F(z) flagged as arc-chord failure


class BlowUpError(Exception):
    """NaN/Inf encountered; carries the last valid state and trajectory."""

    def __init__(self, message, state=None, trajectory=None):
        super().__init__(message)
        self.state = state
        self.trajectory = trajectory


@dataclass
class SimState:
    curve: Curve
    omega: Optional[np.ndarray] = None   # water-wave amplitude; None for Muskat
    t: float = 0.0
    consts: PhysicalConstants = field(default_factory=PhysicalConstants)


def _rhs(consts: PhysicalConstants, curve: Curve, omega):
    """(z_t, omega_t or None) on the given geometry: water waves when an
    amplitude is given, otherwise Muskat for the curve's topology."""
    if omega is not None:
        return waterwave_rhs(curve, omega, consts)
    if curve.topology == PERIODIC:
        return muskat_rhs_periodic(curve, consts.periodic_prefactor), None
    return muskat_rhs_open(curve, consts.darcy_factor), None


def _filtered(curve: Curve, omega):
    if curve.topology != PERIODIC:
        return curve, omega
    z1 = apply_krasny(curve.z1 - curve.alpha, FILTER_THRESHOLD) + curve.alpha
    z2 = apply_krasny(curve.z2, FILTER_THRESHOLD)
    new = Curve(PERIODIC, curve.alpha, z1, z2)
    if omega is not None:
        omega = apply_krasny(omega, FILTER_THRESHOLD)
    return new, omega


def step_rk4(state: SimState, dt: float) -> SimState:
    """One classical 4-stage explicit step, then spectral filtering."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    c0, w0 = state.curve, state.omega

    def shift(a, k):
        zt, wt = k
        curve = c0.with_components(c0.z1 + a * dt * zt[:, 0],
                                   c0.z2 + a * dt * zt[:, 1])
        omega = None if w0 is None else w0 + a * dt * wt
        return curve, omega

    consts = state.consts
    k1 = _rhs(consts, c0, w0)
    k2 = _rhs(consts, *shift(0.5, k1))
    k3 = _rhs(consts, *shift(0.5, k2))
    k4 = _rhs(consts, *shift(1.0, k3))

    zt = (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
    curve = c0.with_components(c0.z1 + dt * zt[:, 0], c0.z2 + dt * zt[:, 1])
    omega = None
    if w0 is not None:
        wt = (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        omega = w0 + dt * wt
    if (not np.all(np.isfinite(curve.z1)) or not np.all(np.isfinite(curve.z2))
            or (omega is not None and not np.all(np.isfinite(omega)))):
        raise BlowUpError(f"non-finite values at t = {state.t + dt:.6g}", state=state)
    curve, omega = _filtered(curve, omega)
    return replace(state, curve=curve, omega=omega, t=state.t + dt)


def advance(state: SimState, T: float, dt: float) -> SimState:
    """Advance by T without event bookkeeping."""
    t_target = state.t + T
    while state.t < t_target - 1e-14:
        step = min(dt, t_target - state.t)
        state = step_rk4(state, step)
    return state


@dataclass
class Event:
    t: float
    kind: str
    payload: dict

    def as_dict(self):
        return {"t": self.t, "kind": self.kind, "payload": self.payload}


@dataclass
class EventLog:
    events: list = field(default_factory=list)

    def add(self, t, kind, **payload):
        self.events.append(Event(float(t), kind, payload))

    def kinds(self):
        return [e.kind for e in self.events]

    def first(self, kind) -> Optional[Event]:
        for e in self.events:
            if e.kind == kind:
                return e
        return None

    def to_json(self):
        return json.dumps([e.as_dict() for e in self.events], indent=1,
                          sort_keys=False)


DIAG_COLUMNS = ["t", "min_slope", "sup_F", "sigma_min", "h4_norm", "mean_f", "t_star"]


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)  # (t, curve, omega)
    diagnostics: list = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)

    @property
    def times(self):
        return np.array([t for t, _, _ in self.snapshots])

    def column(self, name):
        j = DIAG_COLUMNS.index(name)
        return np.array([row[j] for row in self.diagnostics])

    def write_dir(self, path, cadence: int = 1):
        """Write every cadence-th snapshot and the last recorded step, then
        any snapshot past the recorded steps (a curve appended after the
        run, such as the continuation curve at the RT sign change),
        diagnostics.csv and events.json."""
        os.makedirs(path, exist_ok=True)
        last = len(self.diagnostics) - 1
        kept = [s for i, s in enumerate(self.snapshots) if i % cadence == 0 or i >= last]
        for i, (t, curve, omega) in enumerate(kept):
            save_csv(curve, os.path.join(path, f"snap_{i:05d}.csv"), t=t, omega=omega)
        with open(os.path.join(path, "diagnostics.csv"), "w") as fh:
            fh.write(",".join(DIAG_COLUMNS) + "\n")
            for row in self.diagnostics:
                fh.write(",".join("" if (isinstance(x, float) and np.isnan(x))
                                  else f"{x:.17g}" for x in row) + "\n")
        with open(os.path.join(path, "events.json"), "w") as fh:
            fh.write(self.events.to_json() + "\n")


def _diagnose(state: SimState, d):
    """Per-step diagnostics of the state's curve, whose first derivative
    (d1, d2) is d."""
    curve = state.curve
    report = min_slope(curve, d=d)
    try:
        supF = arc_chord(curve, d)
    except SelfIntersectionError:
        supF = np.inf
    d1 = d[0]
    sigma = state.consts.rho_jump * d1
    periodic = curve.topology == PERIODIC
    period = 2.0 * np.pi if periodic else 2.0 * curve.L
    h4 = np.sqrt(discrete_h4_norm(curve.z1 - curve.alpha, period) ** 2
                 + discrete_h4_norm(curve.z2, period) ** 2)
    mean_f = float(np.mean(curve.z2 * d1) if periodic
                   else np.trapezoid(curve.z2 * d1, curve.alpha))
    return report, supF, sigma, float(h4), mean_f


def run(state: SimState, t_end: float, dt: float, stop_on=()):
    """Advance to t_end or the step at which an event kind in stop_on
    first fires.  Returns (Trajectory, final SimState); the trajectory
    holds every accepted step, the initial state included, and its
    `events`.

    Raises BlowUpError (carrying the partial trajectory) on NaN/Inf.
    """
    traj = Trajectory()
    log = traj.events
    seen = set()

    def record(st, report, supF, sigma, h4, mean_f):
        t_star = log.first(TURNING)
        traj.diagnostics.append([st.t, report.min_slope, supF,
                                 float(sigma.min()), h4, mean_f,
                                 t_star.t if t_star else float("nan")])
        traj.snapshots.append((st.t, st.curve,
                               None if st.omega is None else st.omega.copy()))

    report, supF, sigma, h4, mean_f = _diagnose(state, derivative(state.curve, 1))
    record(state, report, supF, sigma, h4, mean_f)
    prev_ms = (state.t, report.min_slope)

    while state.t < t_end - 1e-14:
        h_step = min(dt, t_end - state.t)
        try:
            state = step_rk4(state, h_step)
        except BlowUpError as exc:
            exc.trajectory = traj
            raise
        d = derivative(state.curve, 1)
        report, supF, sigma, h4, mean_f = _diagnose(state, d)

        if TURNING not in seen and prev_ms[1] > 0.0 >= report.min_slope:
            t0, m0 = prev_ms
            frac = m0 / (m0 - report.min_slope) if m0 != report.min_slope else 0.0
            t_star = t0 + frac * (state.t - t0)
            log.add(t_star, TURNING, min_slope=report.min_slope,
                    alpha=report.argmin_alpha)
            seen.add(TURNING)
        prev_ms = (state.t, report.min_slope)

        if RT_SIGN_CHANGE not in seen:
            rt = rt_report(state.curve.alpha, sigma,
                           state.curve.topology == PERIODIC)
            if rt.longest_negative_run >= RT_RUN_LENGTH:
                log.add(state.t, RT_SIGN_CHANGE, nodes=rt.longest_negative_run,
                        sigma_min=rt.min_sigma)
                seen.add(RT_SIGN_CHANGE)

        if GRAPH_BLOWUP not in seen:
            sup_fa = graph_slope_sup(state.curve, d)
            if sup_fa > GRAPH_BLOWUP_THRESHOLD:
                log.add(state.t, GRAPH_BLOWUP, sup_f_alpha=float(sup_fa))
                seen.add(GRAPH_BLOWUP)

        if ARC_CHORD_FAILURE not in seen and not supF < ARC_CHORD_MAX:
            log.add(state.t, ARC_CHORD_FAILURE, sup_F=float(supF))
            seen.add(ARC_CHORD_FAILURE)

        record(state, report, supF, sigma, h4, mean_f)
        if seen & set(stop_on):
            break

    return traj, state

