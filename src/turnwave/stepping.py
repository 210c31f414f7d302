"""Error-controlled Dormand-Prince 5(4) time stepping, spectral
filtering, sampling and event detection.

The driver advances a SimState (curve, optional amplitude).  The state
names its problem: a state with an amplitude omega is a periodic water
wave, one without is Muskat on its curve's topology (open line or
period).

Stepper.  `step_dp54` takes one Dormand-Prince 5(4) step (Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I,
II.4-II.6): seven stages give the fifth-order solution, an embedded
error estimate and a fourth-order dense output on the whole step.  The
error is the RMS over all values of e / (STEP_TOL (1 + max(|y0|,
|y1|))), that is atol = rtol = STEP_TOL, with z1 measured minus alpha on
periodic curves.  The last stage is the RHS at the fifth-order solution
(first same as last; Dormand & Prince 1980), and the RHS does not depend
on t.  So a trial step takes six RHS evaluations when it retries a
rejected one, or follows an accepted step whose end state the filter
left as it was (always on open curves); otherwise seven.

Controller.  `run` and `advance` share one controller.  The first trial
step is dt.  A trial step with non-finite values or an error above 1 is
rejected and retried smaller; a step size that falls below
MIN_STEP_RATIO * dt raises BlowUpError.  The error is estimated before
filtering: an accepted step is Krasny-filtered (FILTER_THRESHOLD, on the
Fourier coefficients in the periodic case) to suppress roundoff-seeded
instability, and the next step size comes from the error estimate alone
(PI control).  StepStats counts accepted and rejected steps, RHS
evaluations and samples.

Sampling.  dt is a sampling interval, not a step size.  `run` samples
the solution at t0 + k dt (and at t_end when that is off the grid) on
the dense output of the step that covers the sample, Krasny-filters it,
and records its diagnostics: minimum slope, arc-chord supremum,
Rayleigh-Taylor minimum, H4 size, and the graph mean.  The samples that
one accepted step covers are evaluated and filtered as stacks (k, rows,
N) of at most STACK_NODES // N samples (_samples); a sample at the
step's end is its filtered end state, and the initial state is a stack
of one.  Before the other diagnostics, _stop_count finds the first
member at which an event kind in stop_on fires (Turning from the slope
minima of the stack's derivative alone), and only the members up to it
are diagnosed, as one stack.  Each member of a stack goes through the
operations it would go through alone, so every diagnostic is the same
float, whatever the stack size.  After a stack is diagnosed, its samples
are checked for events and recorded one by one, in order, the initial
state included; the run ends at the sample where stop_on fires, and the
later samples of its stack are neither diagnosed, recorded nor
counted.  `run` keeps every sample in memory; the
trajectory is thinned to every snapshot_cadence-th sample only when it
is written (`Trajectory.write_dir`).

Events:
  Turning        first sample with min d_alpha z1 <= 0.  The time is the
                 root of min d_alpha z1 on the dense output between that
                 sample and the one before (Brent; event location as in
                 Shampine & Thompson 2000); the payload records both
                 sample times.
  RTSignChange   sigma = (rho2-rho1) d_alpha z1 < 0 on >= RT_RUN_LENGTH
                 consecutive nodes: a grid quantity, the time at which
                 {sigma < 0} first spans that many nodes, which follows
                 the sign change of sigma itself at a delay of O(1/N^2)
  GraphBlowup    sup |f_alpha| exceeds GRAPH_BLOWUP_THRESHOLD while still
                 a graph: a curve with d_alpha z1 <= 0 somewhere, whose
                 graph_slope_sup is +inf, does not fire it
  ArcChordFailure  sup F(z) reaches ARC_CHORD_MAX or the curve
                 self-intersects at grid resolution
"""

import bisect
import fnmatch
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .closures import PhysicalConstants, waterwave_rhs
from .curve import (ARC_CHORD_MAX, Curve, PERIODIC, arc_chord, derivative, graph_slope_sup,
                    load_csv, min_slope, save_csv)
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

STEP_TOL = 1e-11                # absolute and relative local error per step
MIN_STEP_RATIO = 1e-8           # a step below this fraction of dt is a blow-up
SAFETY, FAC_MIN, FAC_MAX = 0.9, 0.2, 10.0   # step-size change per step
PI_BETA = 0.04                  # weight of the previous error (PI control)
PI_ALPHA = 0.2 - 0.75 * PI_BETA
SAMPLE_SLACK = 1e-9             # rounding allowance on t_end, in units of dt
TURNING_XTOL = 1e-14            # absolute tolerance of the located Turning time
TURNING_RTOL = 4.0 * np.finfo(float).eps    # and its relative tolerance
TURNING_MAX_ITER = 100          # root-finder iterations before giving up
# nodes sampled and diagnosed as one stack, members x N.  Each diagnostic
# pays its per-call cost once per stack, and 16384 nodes (31 members at
# N = 513) hold every step of the bundled turning runs in one stack.  It
# is the largest power of two under which no bundled run's peak resident
# memory grows by 2% over stacks of 8 (32768 adds 1.5 MB to the
# breakdown run), and it keeps arc_chord on the stack within the memory
# it takes on one curve, 2 x 3 x BLOCK_ROWS x N floats, at N = 2048
STACK_NODES = 16384

# Dormand-Prince 5(4): nodes, stage rows (the last row is also the
# fifth-order weights), fifth- minus fourth-order weights, and the
# dense-output weights of the fourth-order continuous extension
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])
STAGES = len(_C)


class BlowUpError(Exception):
    """NaN/Inf or a vanishing step; carries the last valid state and the
    trajectory, which run sets when the error passes through it."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
        self.trajectory = None


@dataclass
class SimState:
    curve: Curve
    omega: Optional[np.ndarray] = None   # water-wave amplitude; None for Muskat
    t: float = 0.0
    consts: PhysicalConstants = field(default_factory=PhysicalConstants)


@dataclass
class StepStats:
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0
    samples: int = 0


def _rhs(consts: PhysicalConstants, curve: Curve, omega):
    """(z_t, omega_t or None) on the given geometry: water waves when an
    amplitude is given, otherwise Muskat for the curve's topology."""
    if omega is not None:
        return waterwave_rhs(curve, omega, consts)
    if curve.topology == PERIODIC:
        return muskat_rhs_periodic(curve, consts.periodic_prefactor), None
    return muskat_rhs_open(curve, consts.darcy_factor), None


def _filtered(state: SimState) -> SimState:
    curve, omega = state.curve, state.omega
    if curve.topology != PERIODIC:
        return state
    z1 = apply_krasny(curve.z1 - curve.alpha, FILTER_THRESHOLD)
    z1 += curve.alpha
    z2 = apply_krasny(curve.z2, FILTER_THRESHOLD)
    if omega is not None:
        omega = apply_krasny(omega, FILTER_THRESHOLD)
    return replace(state, curve=Curve(PERIODIC, curve.alpha, z1, z2), omega=omega)


def _pack(state: SimState) -> np.ndarray:
    """The state's values as rows (z1, z2[, omega]); z1 minus alpha on a
    periodic curve."""
    c = state.curve
    x1 = c.z1 - c.alpha if c.topology == PERIODIC else c.z1
    return np.array([x1, c.z2] if state.omega is None else [x1, c.z2, state.omega])


def _unpack(like: SimState, y: np.ndarray, t) -> SimState:
    """The state of like's problem with the values y, rows (z1, z2[,
    omega]) as _pack gives them; y of shape (k, rows, N) with k times t
    gives a stack."""
    c = like.curve
    x1, z2 = y[..., 0, :], y[..., 1, :]
    z1 = x1 + c.alpha if c.topology == PERIODIC else x1
    return replace(like, curve=c.with_components(z1, z2),
                   omega=None if like.omega is None else y[..., 2, :], t=t)


def _stack(states) -> SimState:
    """One stack of the given states, single or stacked, in order; its t
    is the array of their times."""
    first, c = states[0], states[0].curve

    def rows(xs):
        return np.concatenate([np.reshape(x, (-1, c.n)) for x in xs])

    curve = Curve(c.topology, c.alpha, rows([st.curve.z1 for st in states]),
                  rows([st.curve.z2 for st in states]), L=c.L)
    omega = None if first.omega is None else rows([st.omega for st in states])
    return replace(first, curve=curve, omega=omega,
                   t=np.concatenate([np.atleast_1d(st.t) for st in states]))


def _member(group: SimState, i) -> SimState:
    """Member i of a stack, as a single state; the stack of the members i
    when i is a slice."""
    c = group.curve
    t = group.t[i]
    return replace(group, curve=Curve(c.topology, c.alpha, c.z1[i], c.z2[i], L=c.L),
                   omega=None if group.omega is None else group.omega[i],
                   t=t if isinstance(i, slice) else float(t))


def _derivative(state: SimState) -> np.ndarray:
    zt, wt = _rhs(state.consts, state.curve, state.omega)
    return np.array([zt[:, 0], zt[:, 1]] if wt is None else [zt[:, 0], zt[:, 1], wt])


@dataclass
class Step:
    """One trial step of size h from `start`: the fifth-order end state
    (unfiltered; None when a stage was non-finite), the scaled error
    estimate (inf for non-finite values), the RHS evaluations it made, its
    dense-output coefficients and its first and last stages, the RHS at
    `start` and at `end` (the second unset when `end` is None)."""
    start: SimState
    h: float
    end: Optional[SimState]
    error: float
    rhs_evaluations: int
    dense: tuple = ()
    stages: Optional[np.ndarray] = None

    def at(self, t) -> SimState:
        """The dense output at t in [start.t, start.t + h], unfiltered; a
        stack when t is an array of times.  The polynomial y0 + theta (dy
        + rest (b + theta (c + rest d))) is evaluated in place, in the one
        array it returns, with the bits of that expression."""
        t = np.asarray(t, dtype=float)
        theta = ((t - self.start.t) / self.h)[..., None, None]
        y0, dy, b, c, d = self.dense
        rest = 1.0 - theta
        y = rest * d
        y += c
        y *= theta
        y += b
        y *= rest
        y += dy
        y *= theta
        y += y0
        return _unpack(self.start, y, float(t) if t.ndim == 0 else t)


def _combine(weights, k) -> np.ndarray:
    """sum_j weights[j] k[j] in elementwise operations, so the result does
    not depend on the BLAS thread count."""
    out = weights[0] * k[0]
    for w, kj in zip(weights[1:], k[1:]):
        out += w * kj
    return out


def step_dp54(state: SimState, h: float, k0: Optional[np.ndarray] = None) -> Step:
    """One Dormand-Prince 5(4) trial step of size h; see the module
    docstring for the error norm.  k0, when given, is the first stage, the
    RHS at `state`, and is not evaluated again."""
    if not h > 0:
        raise ValueError("step must be positive")
    y0 = _pack(state)
    k = np.empty((STAGES,) + y0.shape)
    k[0] = _derivative(state) if k0 is None else k0
    reused = k0 is not None
    for i in range(1, STAGES):
        y = y0 + h * _combine(_A[i], k)
        if not np.all(np.isfinite(y)):
            return Step(state, h, None, np.inf, i - reused, stages=k[[0, -1]])
        k[i] = _derivative(_unpack(state, y, state.t + _C[i] * h))
    scale = STEP_TOL * (1.0 + np.maximum(np.abs(y0), np.abs(y)))
    error = float(np.sqrt(np.mean((h * _combine(_E, k) / scale) ** 2)))
    if not np.isfinite(error):
        error = np.inf
    dy = y - y0
    b = h * k[0] - dy
    dense = (y0, dy, b, dy - h * k[-1] - b, h * _combine(_D, k))
    return Step(state, h, _unpack(state, y, state.t + h), error, STAGES - reused, dense,
                k[[0, -1]])


def _accepted_steps(state: SimState, t_stop: float, dt: float, stats: StepStats):
    """Yield (step, filtered end state, next trial step) for each accepted
    step from state to t_stop, the first trial step being dt; the last
    step lands on t_stop exactly.  Raises BlowUpError (carrying the last
    accepted state) when the step size falls below MIN_STEP_RATIO * dt."""
    h, h_min = dt, MIN_STEP_RATIO * dt
    previous_error, after_rejection = 1.0, False
    k0 = None
    while state.t < t_stop:
        landing = state.t + 1.01 * h >= t_stop
        h_try = t_stop - state.t if landing else h
        step = step_dp54(state, h_try, k0)
        stats.rhs_evaluations += step.rhs_evaluations
        if step.error <= 1.0:
            stats.accepted_steps += 1
            end = replace(step.end, t=t_stop) if landing else step.end
            state = _filtered(end)
            k0 = step.stages[1] if state is end else None
            factor = (SAFETY * max(step.error, 1e-10) ** -PI_ALPHA
                      * previous_error ** PI_BETA)
            factor = min(FAC_MAX, max(FAC_MIN, factor))
            if after_rejection:
                factor = min(factor, 1.0)
            h = h_try * factor
            previous_error, after_rejection = max(step.error, 1e-4), False
            yield step, state, h
        else:
            stats.rejected_steps += 1
            k0 = step.stages[0]
            h = h_try * max(FAC_MIN, SAFETY * step.error ** -PI_ALPHA)
            after_rejection = True
            if h < h_min:
                raise BlowUpError(
                    f"step {h:.3g} below {h_min:.3g} at t = {state.t:.6g} "
                    f"(last trial: error {step.error:.3g})", state=state)


def advance(state: SimState, T: float, dt: float,
            stats: Optional[StepStats] = None) -> tuple[SimState, float]:
    """Advance by T without sampling or events; dt is the first trial step.
    Returns the end state and the controller's next trial step, which a
    caller that advances on from there passes back as dt.  The step
    counts are added to stats when it is given."""
    stats = StepStats() if stats is None else stats
    h = dt
    for _, state, h in _accepted_steps(state, state.t + T, dt, stats):
        pass
    return state, h


@dataclass
class Event:
    t: float
    kind: str
    payload: dict


@dataclass
class EventLog:
    events: list = field(default_factory=list)

    def add(self, t, kind, **payload):
        self.events.append(Event(float(t), kind, payload))

    def kinds(self):
        return [e.kind for e in self.events]

    def first(self, kind) -> Optional[Event]:
        return next((e for e in self.events if e.kind == kind), None)


DIAG_COLUMNS = ["t", "min_slope", "sup_F", "sigma_min", "h4_norm", "mean_f", "t_star"]


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)  # (t, curve, omega)
    diagnostics: list = field(default_factory=list)
    # graph_slope_sup of each recorded sample; not a column of diagnostics.csv
    slope_sups: list = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    stats: StepStats = field(default_factory=StepStats)

    @property
    def times(self):
        return np.array([t for t, _, _ in self.snapshots])

    def write_dir(self, path, cadence: int = 1):
        """Write every cadence-th snapshot and the last recorded sample, then
        any snapshot past the recorded samples (a curve appended after the
        run, such as the continuation curve at the RT sign change),
        diagnostics.csv and events.json, after remove_run_files has removed
        the files of an earlier run in path."""
        os.makedirs(path, exist_ok=True)
        last = len(self.diagnostics) - 1
        kept = [s for i, s in enumerate(self.snapshots) if i % cadence == 0 or i >= last]
        names = [f"snap_{i:05d}.csv" for i in range(len(kept))]
        remove_run_files(path, keep=names)
        for name, (t, curve, omega) in zip(names, kept):
            save_csv(curve, os.path.join(path, name), t=t, omega=omega)
        with open(os.path.join(path, "diagnostics.csv"), "w") as fh:
            fh.write(",".join(DIAG_COLUMNS) + "\n")
            for row in self.diagnostics:
                fh.write(",".join("" if (isinstance(x, float) and math.isnan(x))
                                  else f"{x:.17g}" for x in row) + "\n")
        with open(os.path.join(path, "events.json"), "w") as fh:
            fh.write(json.dumps([asdict(e) for e in self.events.events], indent=1) + "\n")

    @classmethod
    def read_dir(cls, path) -> "Trajectory":
        """The inverse of write_dir: the snapshot files in order, the
        diagnostics.csv rows (an empty field is nan) and the events, each
        value the float that was written (17 significant digits, repr for
        a snapshot's time).  Raises FileNotFoundError when path holds no
        snapshot files."""
        names = sorted(fnmatch.filter(os.listdir(path), "snap_*.csv"))
        if not names:
            raise FileNotFoundError(f"{path}: no snapshot files")
        with open(os.path.join(path, "diagnostics.csv")) as fh:
            rows = [[float(x) if x else math.nan for x in line.rstrip("\n").split(",")]
                    for line in fh.readlines()[1:]]
        with open(os.path.join(path, "events.json")) as fh:
            events = EventLog([Event(**e) for e in json.load(fh)])
        return cls([(t, c, w) for c, t, w in (load_csv(os.path.join(path, name))
                                              for name in names)], rows, events=events)


# every name a run writes besides its snapshots (snap_*.csv): exact names,
# so that no file of the user's in an output directory matches
RUN_FILES = ("diagnostics.csv", "events.json", "metrics.json", "config.txt", "report.json",
             "interface.svg", "min_slope.svg", "sigma_min.svg", "sigma10.svg", "slope_sup.svg",
             "mode_amplitude.svg", "mode_series.svg", "continuation.csv", "ck_compare.csv")


def remove_run_files(path, keep=()):
    """Remove the files of an earlier run from path, its snapshots and each
    name in RUN_FILES, except those in keep.  Other files in path stay."""
    for name in set(os.listdir(path)) - set(keep):
        if name in RUN_FILES or fnmatch.fnmatchcase(name, "snap_*.csv"):
            os.remove(os.path.join(path, name))


def _diagnose(group: SimState, d):
    """The diagnostics of a stack of samples, one per member: the slope
    report, arc-chord sup (inf for a zero chord), sigma rows, H4 size,
    graph mean and graph slope sup.  d = (d1, d2) is the stack's first
    derivative."""
    curve = group.curve
    d1 = d[0]
    periodic = curve.topology == PERIODIC
    period = 2.0 * np.pi if periodic else 2.0 * curve.L
    h4 = np.sqrt(discrete_h4_norm(curve.z1 - curve.alpha, period) ** 2
                 + discrete_h4_norm(curve.z2, period) ** 2)
    mean_f = (np.mean(curve.z2 * d1, axis=-1) if periodic
              else np.trapezoid(curve.z2 * d1, curve.alpha, axis=-1))
    return (min_slope(curve, d=d), arc_chord(curve, d), group.consts.rho_jump * d1,
            h4, mean_f, graph_slope_sup(curve, d))


def _fires(kind, values, before) -> np.ndarray:
    """Whether an event kind fires at each member of a stack, from the
    diagnostic it is read off: the min slope for Turning, which also needs
    the min slope of the sample `before` the stack (nan for none), the
    longest run of sigma < 0, the graph slope sup, or the arc-chord sup."""
    if kind == TURNING:
        return (np.append(before, values[:-1]) > 0.0) & (values <= 0.0)
    if kind == RT_SIGN_CHANGE:
        return values >= RT_RUN_LENGTH
    if kind == GRAPH_BLOWUP:
        return (GRAPH_BLOWUP_THRESHOLD < values) & (values < np.inf)
    return ~(values < ARC_CHORD_MAX)


def _stop_count(group: SimState, d, stop_on, before) -> int:
    """How many members of a stack run records: those up to the first at
    which an event kind in stop_on fires, or all.  d is the stack's first
    derivative and before the min slope of the sample before it.  Turning
    is read off the slope minima alone; any other kind in stop_on off its
    own diagnostic of the whole stack."""
    curve = group.curve
    read = {TURNING: lambda: min_slope(curve, d=d).min_slope,
            RT_SIGN_CHANGE: lambda: rt_report(curve.alpha, group.consts.rho_jump * d[0],
                                              curve.topology == PERIODIC).longest_negative_run,
            GRAPH_BLOWUP: lambda: graph_slope_sup(curve, d),
            ARC_CHORD_FAILURE: lambda: arc_chord(curve, d)}
    fired = np.zeros(len(group.t), dtype=bool)
    for kind in stop_on:
        fired |= _fires(kind, read[kind](), before)
    return int(np.argmax(fired)) + 1 if fired.any() else len(group.t)


def _samples(step: Step, end: SimState, ts) -> SimState:
    """The samples at the times ts of an accepted step as one stack: the
    filtered dense output, and at the step's end its filtered end state."""
    inner = ts[:-1] if ts[-1] == end.t else ts
    parts = [_filtered(step.at(inner))] if inner else []
    if len(inner) < len(ts):
        parts.append(end)
    return _stack(parts)


def _sample_times(t0: float, t_end: float, dt: float) -> list:
    """t0 + k dt up to t_end, then t_end itself when it is off that grid by
    more than a rounding error."""
    count = max(0, int(np.floor((t_end - t0) / dt + SAMPLE_SLACK)))
    times = [t0 + k * dt for k in range(count + 1)]
    if t_end - times[-1] > SAMPLE_SLACK * dt:
        times.append(t_end)
    return times


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f between a and b, given fa = f(a) != 0 and fb = f(b) of the
    other sign or 0, to within (TURNING_XTOL + TURNING_RTOL |x|) / 2:
    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  x is the best estimate, x_pre the one
    before, x_blk the far end of the bracket.  A step interpolates (secant,
    or inverse quadratic through three points) when that lands well inside
    the bracket and shrinks faster than bisection would; else it bisects."""
    x_pre, f_pre, x, fx = a, fa, b, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(TURNING_MAX_ITER):
        if (f_pre < 0.0) != (fx < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x - x_pre
        if abs(f_blk) < abs(fx):
            x_pre, x, x_blk = x, x_blk, x
            f_pre, fx, f_blk = fx, f_blk, fx
        delta = (TURNING_XTOL + TURNING_RTOL * abs(x)) / 2.0
        s_bis = (x_blk - x) / 2.0
        if fx == 0.0 or abs(s_bis) < delta:
            return float(x)
        s_try = None
        if abs(s_pre) > delta and abs(fx) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -fx * (x - x_pre) / (fx - f_pre)
            else:
                d_pre = (f_pre - fx) / (x_pre - x)
                d_blk = (f_blk - fx) / (x_blk - x)
                s_try = (-fx * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if not 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_try = None
        s_pre, s_cur = (s_bis, s_bis) if s_try is None else (s_cur, s_try)
        x_pre, f_pre = x, fx
        x += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        fx = f(x)
    raise RuntimeError(f"root not located in {TURNING_MAX_ITER} iterations")


def _locate_turning(covering, t_a, m_a, t_b, m_b) -> float:
    """Root of min d_alpha z1 on the filtered dense output between the
    samples (t_a, m_a) and (t_b, m_b), m_a > 0 >= m_b.  covering holds
    (end time, step) for the accepted steps that span [t_a, t_b]."""
    def slope(t):
        step = next(s for t1, s in covering if t <= t1)
        return min_slope(_filtered(step.at(t)).curve).min_slope

    return _brent(slope, t_a, t_b, m_a, m_b)


def run(state: SimState, t_end: float, dt: float, stop_on=()):
    """Sample the solution at state.t + k dt up to t_end, or up to the
    sample at which an event kind in stop_on first fires.  Returns
    (Trajectory, last sample); the trajectory holds every sample, its
    `events` and its step `stats`.  Every sample, the initial state too,
    goes through the same checks; Turning needs an earlier positive slope.

    Raises BlowUpError (carrying the partial trajectory) when the step
    size falls below its floor.
    """
    traj = Trajectory()
    log = traj.events
    times = _sample_times(state.t, t_end, dt)
    prev_ms = None          # (t, min slope) of the previous sample
    covering = []           # (end time, step) of the steps since that sample

    def take(group):
        """Diagnose the members of a stack up to the one where the run
        stops (_stop_count) at once, then check and record them one by
        one; returns the sample at which stop_on fired, else None."""
        nonlocal prev_ms
        d = derivative(group.curve, 1)
        before = math.nan if prev_ms is None else prev_ms[1]
        count = _stop_count(group, d, stop_on, before)
        if count < len(group.t):
            group, d = _member(group, slice(count)), (d[0][:count], d[1][:count])
        report, supF, sigma, h4, mean_f, sup_fa = _diagnose(group, d)
        rt = rt_report(group.curve.alpha, sigma, group.curve.topology == PERIODIC)
        fired = {kind: _fires(kind, values, before) for kind, values in (
            (TURNING, report.min_slope), (RT_SIGN_CHANGE, rt.longest_negative_run),
            (GRAPH_BLOWUP, sup_fa), (ARC_CHORD_FAILURE, supF))}
        for i, t in enumerate(group.t.tolist()):
            m = float(report.min_slope[i])
            if fired[TURNING][i] and log.first(TURNING) is None:
                log.add(_locate_turning(covering, *prev_ms, t, m), TURNING, min_slope=m,
                        alpha=float(report.argmin_alpha[i]), bracket=[prev_ms[0], t])
            prev_ms = (t, m)
            del covering[:-1]
            longest, lowest = int(rt.longest_negative_run[i]), float(rt.min_sigma[i])
            for kind, payload in (
                    (RT_SIGN_CHANGE, {"nodes": longest, "sigma_min": lowest}),
                    (GRAPH_BLOWUP, {"sup_f_alpha": float(sup_fa[i])}),
                    (ARC_CHORD_FAILURE, {"sup_F": float(supF[i])})):
                if fired[kind][i] and log.first(kind) is None:
                    log.add(t, kind, **payload)

            t_star = log.first(TURNING)
            traj.diagnostics.append([t, m, float(supF[i]), lowest,
                                     float(h4[i]), float(mean_f[i]),
                                     t_star.t if t_star else float("nan")])
            traj.slope_sups.append(float(sup_fa[i]))
            sample = _member(group, i)
            traj.snapshots.append((t, sample.curve, sample.omega))
            traj.stats.samples += 1
            if any(log.first(kind) for kind in stop_on):
                return sample
        return None

    members = max(1, STACK_NODES // state.curve.n)
    group, k = _stack([state]), 1
    try:
        stopped = take(group)
        if stopped is not None:
            return traj, stopped
        for step, end, _ in _accepted_steps(state, times[-1], dt, traj.stats):
            covering.append((end.t, step))
            covered = bisect.bisect_right(times, end.t, k)
            for g in range(k, covered, members):
                group = _samples(step, end, times[g:min(g + members, covered)])
                stopped = take(group)
                if stopped is not None:
                    return traj, stopped
            k = covered
    except BlowUpError as exc:
        exc.trajectory = traj
        raise
    return traj, _member(group, -1)
