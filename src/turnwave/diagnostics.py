"""Rayleigh-Taylor functions, weighted-RT verifiers, strip energy distance.

Two RT reductions are implemented literally:

* sigma_muskat: the sign proxy (rho2 - rho1) * d_alpha z1, whose first
  sign change marks the entry into the unstable regime;
* sigma10: the periodic-setting RT function
  -2*pi * z1' / ((z1')^2 + (z2')^2), which vanishes exactly at a
  vertical tangent.

The weight pair (weight_h on [tau^2, tau], weight_hbar on [0, tau^2]) and
the weighted inequalities they enter are evaluated pointwise with
analytic time derivatives.  Note hbar is implemented with sin^2(x/2): the
printed sin(x/2) is an erratum, being neither 2*pi-periodic nor
sign-definite, which contradicts the positivity and periodicity the
weights must satisfy.

energy_distance compares two strip curves through the fourth derivative
of their difference on the upper strip boundary (acceptance criterion 10).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .closures import PhysicalConstants
from .curve import Curve, PERIODIC, derivative
from .spectral import fourier_derivative, modes


@dataclass(frozen=True)
class WeightParams:
    A: float = 100.0
    tau: float = 0.005

    def __post_init__(self):
        if not self.A >= 1.0:
            raise ValueError("A must be >= 1")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must be in (0, 1]")
        if 1.0 / self.A < self.tau - self.tau ** 2:
            warnings.warn(
                "weight h is not nonnegative unless 1/A >= tau - tau^2 "
                "(choose A large, then tau small)", stacklevel=2)


@dataclass
class RTReport:
    sigma: np.ndarray
    negative_intervals: list
    min_sigma: float
    longest_negative_run: int   # nodes in the longest run of sigma < 0


def rt_report(alpha, sigma, periodic: bool) -> RTReport:
    """Maximal runs of nodes with sigma < 0, as (alpha_first, alpha_last)
    intervals and the node count of the longest one.  On a periodic grid
    a run through the seam is one run, and its interval has
    alpha_first > alpha_last.  For a stack, sigma of shape (k, N), the
    report holds one list of intervals, one minimum and one longest run
    per member."""
    sigma = np.asarray(sigma)
    n = sigma.shape[-1]
    rows = sigma.reshape(-1, n)
    edges = np.diff((rows < 0.0).astype(np.int8), prepend=0, append=0, axis=-1)
    member, first = np.nonzero(edges == 1)
    last = np.nonzero(edges == -1)[1] - 1
    if periodic:
        # a member's last run, when it ends at node n - 1, takes in its
        # first run, when that is another one and starts at node 0
        tail = np.flatnonzero(last == n - 1)
        head = np.searchsorted(member, member[tail])
        join = (first[head] == 0) & (head < tail)
        head, tail = head[join], tail[join]
        last[tail] = last[head] + n
        member, first, last = (np.delete(x, head) for x in (member, first, last))
    longest = np.zeros(len(rows), dtype=int)
    np.maximum.at(longest, member, last - first + 1)
    intervals = [[] for _ in rows]
    for i, s, e in zip(member.tolist(), first.tolist(), last.tolist()):
        intervals[i].append((float(alpha[s]), float(alpha[e % n])))
    lowest = rows.min(axis=-1)
    if sigma.ndim == 1:
        return RTReport(sigma, intervals[0], float(lowest[0]), int(longest[0]))
    return RTReport(sigma, intervals, lowest, longest)


def sigma_muskat(curve: Curve, consts: PhysicalConstants, d) -> RTReport:
    """RT sign proxy (rho2 - rho1) d_alpha z1 with sign-run extraction, from
    the first derivative d = (d1, d2) of the curve, or of a stack of
    curves (one report per member, as rt_report gives it)."""
    return rt_report(curve.alpha, consts.rho_jump * d[0], curve.topology == PERIODIC)


def sigma10(curve: Curve) -> np.ndarray:
    """Periodic-setting RT function -2*pi*z1' / ((z1')^2 + (z2')^2)."""
    d1, d2 = derivative(curve, 1)
    speed2 = d1 ** 2 + d2 ** 2
    if np.any(speed2 < 1e-14):
        raise ValueError("parameterization degenerate: |d_alpha z| ~ 0")
    return -2.0 * np.pi * d1 / speed2


# --- section-4 weight functions ----------------------------------------------

def _check_window(t, lo, hi, name):
    t = np.asarray(t, dtype=float)
    if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
        raise ValueError(f"{name} defined for t in [{lo:g}, {hi:g}]")
    return t


def weight_h(x, t, params: WeightParams):
    """h(x,t) = A^-1 (tau^2 - t^2) + (A^-1 - (tau - t)) sin^2(x/2),
    t in [tau^2, tau]."""
    A, tau = params.A, params.tau
    t = _check_window(t, tau ** 2, tau, "weight_h")
    x = np.asarray(x, dtype=float)
    return (tau ** 2 - t ** 2) / A + (1.0 / A - (tau - t)) * np.sin(0.5 * x) ** 2


def weight_h_dt(x, t, params: WeightParams):
    A, tau = params.A, params.tau
    t = _check_window(t, tau ** 2, tau, "weight_h")
    return -2.0 * t / A + np.sin(0.5 * np.asarray(x, dtype=float)) ** 2


def weight_hbar(x, t, params: WeightParams):
    """hbar(x,t) = (1/4)(A^-1 tau^2 + A^-1 s(x)) + A^-2 tau t + A t s(x),
    t in [0, tau^2], with s = sin^2(x/2) (see the module note)."""
    A, tau = params.A, params.tau
    t = _check_window(t, 0.0, tau ** 2, "weight_hbar")
    s = np.sin(0.5 * np.asarray(x, dtype=float)) ** 2
    return 0.25 * (tau ** 2 / A + s / A) + tau * t / A ** 2 + A * t * s


def weight_hbar_dt(x, t, params: WeightParams):
    A, tau = params.A, params.tau
    t = _check_window(t, 0.0, tau ** 2, "weight_hbar")
    return tau / A ** 2 + A * np.sin(0.5 * np.asarray(x, dtype=float)) ** 2


@dataclass
class WeightedRTReport:
    hi_margin: float           # min of sigma10 + h_t - sqrt(A) h on [tau^2, tau]
    hbari_margin: float        # min of sigma10 + hbar_t - sqrt(A) hbar on [0, tau^2]
    hbari_bound: float         # the claimed lower bound A^-2 tau / 2
    hi_pass: bool              # positivity of the h-window margin
    hbari_pass: bool           # margin >= bound


def verify_weighted_rt(sigma10_grid, x, t, params: WeightParams) -> WeightedRTReport:
    """Minimum margins of the weighted RT inequalities over a sampled
    (x, t) trajectory of sigma10 values (shape (len(t), len(x)))."""
    sig = np.asarray(sigma10_grid, dtype=float)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if sig.shape != (t.size, x.size):
        raise ValueError("sigma10 grid must be (n_times, n_x)")
    A, tau = params.A, params.tau
    rootA = np.sqrt(A)
    hi_vals, hbari_vals = [], []
    for ti, row in zip(t, sig):
        if tau ** 2 - 1e-12 <= ti <= tau + 1e-12:
            lhs = row + weight_h_dt(x, ti, params) - rootA * weight_h(x, ti, params)
            hi_vals.append(lhs.min())
        if -1e-12 <= ti <= tau ** 2 + 1e-12:
            lhs = row + weight_hbar_dt(x, ti, params) - rootA * weight_hbar(x, ti, params)
            hbari_vals.append(lhs.min())
    if not hi_vals and not hbari_vals:
        raise ValueError("trajectory does not cover either weight window")
    hi_margin = float(min(hi_vals)) if hi_vals else float("nan")
    hbari_margin = float(min(hbari_vals)) if hbari_vals else float("nan")
    bound = 0.5 * tau / A ** 2
    return WeightedRTReport(
        hi_margin=hi_margin, hbari_margin=hbari_margin, hbari_bound=bound,
        hi_pass=bool(hi_vals and hi_margin > 0.0),
        hbari_pass=bool(hbari_vals and hbari_margin >= bound))


# --- sigma10 property checklist ----------------------------------------------

def sigma10_checklist(curves, times) -> dict:
    """Evaluate the stated properties of sigma10 at (x, t) = (0, 0) on a
    trajectory of periodic curves.

    p1/p3 (analyticity / C^k bounds) are reported as boundedness values;
    p2 reality and p4 value, p5 first derivative are checked against 1e-6;
    p6 (d_x^2 < 0) and p7 (d_t > 0) report signed values.
    """
    curves = list(curves)
    times = np.asarray(times, dtype=float)
    if len(curves) < 3:
        raise ValueError("need >= 3 snapshots for the time derivative")
    sig_rows = np.array([sigma10(c) for c in curves])
    c0 = curves[0]
    if abs(c0.alpha[0]) > 1e-12:
        raise ValueError("grid must contain x = 0")
    s0 = sig_rows[0]
    ds = fourier_derivative(s0)
    d2s = fourier_derivative(s0, 2)
    # one-sided time derivative at t = times[0] from a quadratic fit
    poly = np.polyfit(times[:3] - times[0], sig_rows[:3, 0], 2)
    st = float(poly[1])
    out = {
        "p1": {"value": float(np.max(np.abs(sig_rows))), "pass": bool(np.all(np.isfinite(sig_rows)))},
        "p2": {"value": float(np.max(np.abs(np.imag(sig_rows + 0j)))), "pass": True},
        "p3": {"value": float(np.max(np.abs(d2s))), "pass": bool(np.all(np.isfinite(d2s)))},
        "p4": {"value": float(s0[0]), "pass": bool(abs(s0[0]) <= 1e-6)},
        "p5": {"value": float(ds[0]), "pass": bool(abs(ds[0]) <= 1e-6)},
        "p6": {"value": float(d2s[0]), "pass": bool(d2s[0] < 0.0)},
        "p7": {"value": float(st), "pass": bool(st > 0.0)},
    }
    return out


# --- energy distances on strip contours ---------------------------------------

def energy_distance(strip, reference) -> float:
    """int over Gamma_+ of |d^4 z - d^4 zbar|^2 dRe(zeta) between two strip
    curves sharing the same strip geometry.  The distance whose decay
    acceptance criterion 10 bounds."""
    if abs(strip.r - reference.r) > 1e-14 or strip.n != reference.n:
        raise ValueError("strip curves must share strip geometry")
    kmodes = modes(strip.n)
    diff = strip.coeffs - reference.coeffs  # (2, n_modes)
    mult = (1j * kmodes) ** 4 * np.exp(-kmodes * strip.r)
    vals = diff * mult
    return float(2.0 * np.pi * np.sum(np.abs(vals) ** 2))
