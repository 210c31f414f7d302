"""Constructors for turning initial data and their sign certificate.

The open-line candidate is built from

    z1(beta) = beta^3 / (1 + beta^2)

(odd, z1'(0) = 0, z1' > 0 elsewhere) and a vertical component
z2 = b * z2star on [0, beta2] with

    z2star(beta) = beta (beta1^2 - beta^2) / (1 + beta^4)

(odd, slope beta1^2 at 0, positive on (0, beta1), negative on
(beta1, beta2]), blended by a C^2 quintic on [beta2, beta3] down to a
constant negative level cbar on [beta3, inf).

The certificate for "the curve is about to turn" is: z1' >= 0 with
equality only at 0, z2'(0) > 0, and d_alpha v1(0) < 0, the last evaluated
by the reduced single-integral formula

    dv1(0) = 4 z2'(0) * int_0^inf z1 z2 z1' / |z|^4 dbeta

and, independently, by the two-integral formula obtained by
differentiating the contour equation directly (their agreement is an
integration-by-parts identity).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closures import PhysicalConstants
from .curve import (Curve, OPEN, PERIODIC, derivative,
                    min_slope, open_grid, periodic_grid, resample)
from .singular import QuadratureError, _muskat_periodic
from .spectral import discrete_h4_norm
from .stepping import SimState, StepStats, advance


# relative-only agreement of successive panel doublings in the certificate
# quadratures: dv1(0) falls to ~5e-4 on some candidates and the
# two-integral form cancels heavily, so an absolute tolerance would
# govern the result there
QUAD_EPSREL = 1e-10
MAX_QUAD_PANELS = 4096          # panels per piece before the doubling gives up
DV1_NODES = 2048                # nodes dv1_at_zero_periodic resamples a coarser curve to
# the 16-point Gauss-Legendre rule on [-1, 1], applied panel by panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class DeltaTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class TurningParams:
    beta1: float = 1.0
    beta2: float = 3.0
    beta3: float = 5.0
    b: float = 3.0
    cbar: float = -0.2

    def __post_init__(self):
        if not (0 < self.beta1 < self.beta2 < self.beta3):
            raise ValueError("beta1, beta2, beta3 need 0 < beta1 < beta2 < beta3")
        if not self.b > 0:
            raise ValueError("b (amplitude) must be positive")
        if not self.cbar < 0:
            raise ValueError("cbar (tail level) must be negative")


# --- closed-form horizontal profile ----------------------------------------

def z1_profile(beta):
    beta = np.asarray(beta, dtype=float)
    return beta ** 3 / (1.0 + beta ** 2)


def dz1_profile(beta):
    beta = np.asarray(beta, dtype=float)
    return beta ** 2 * (beta ** 2 + 3.0) / (1.0 + beta ** 2) ** 2


def d2z1_profile(beta):
    beta = np.asarray(beta, dtype=float)
    return 2.0 * beta * (3.0 - beta ** 2) / (1.0 + beta ** 2) ** 3


def z2star(beta, beta1):
    beta = np.asarray(beta, dtype=float)
    return beta * (beta1 ** 2 - beta ** 2) / (1.0 + beta ** 4)


def dz2star(beta, beta1):
    beta = np.asarray(beta, dtype=float)
    num = beta1 ** 2 * beta - beta ** 3
    dnum = beta1 ** 2 - 3.0 * beta ** 2
    den = 1.0 + beta ** 4
    return (dnum * den - num * 4.0 * beta ** 3) / den ** 2


def d2z2star(beta, beta1):
    beta = np.asarray(beta, dtype=float)
    num = beta1 ** 2 * beta - beta ** 3
    dnum = beta1 ** 2 - 3.0 * beta ** 2
    d2num = -6.0 * beta
    den = 1.0 + beta ** 4
    dden = 4.0 * beta ** 3
    d2den = 12.0 * beta ** 2
    return (d2num / den - 2.0 * dnum * dden / den ** 2
            + num * (2.0 * dden ** 2 / den ** 3 - d2den / den ** 2))


def _hermite_quintic(x0, x1, v0, d0, s0, v1, d1, s1):
    """Coefficients (ascending) of the quintic matching value and two
    derivatives at x0 and x1."""
    rows = []
    for x in (x0, x1):
        rows.append([x ** j for j in range(6)])
        rows.append([j * x ** (j - 1) if j >= 1 else 0.0 for j in range(6)])
        rows.append([j * (j - 1) * x ** (j - 2) if j >= 2 else 0.0 for j in range(6)])
    return np.linalg.solve(np.array(rows, dtype=float),
                           np.array([v0, d0, s0, v1, d1, s1], dtype=float))


class _VerticalProfile:
    """Piecewise odd z2: b*z2star on [0, beta2], quintic blend on
    [beta2, beta3], constant cbar beyond."""

    def __init__(self, params: TurningParams):
        self.p = params
        p = params
        coeffs = _hermite_quintic(
            p.beta2, p.beta3,
            p.b * z2star(p.beta2, p.beta1),
            p.b * dz2star(p.beta2, p.beta1),
            p.b * d2z2star(p.beta2, p.beta1),
            p.cbar, 0.0, 0.0)
        self.poly = np.polynomial.Polynomial(coeffs)
        self.dpoly = self.poly.deriv()

    def _eval(self, beta, fn_core, fn_blend, tail, odd):
        beta = np.asarray(beta, dtype=float)
        sgn = np.sign(beta)
        ab = np.abs(beta)
        out = np.where(ab <= self.p.beta2, fn_core(ab),
                       np.where(ab < self.p.beta3, fn_blend(ab), tail))
        return sgn * out if odd else out

    def value(self, beta):
        return self._eval(beta, lambda x: self.p.b * z2star(x, self.p.beta1),
                          self.poly, self.p.cbar, odd=True)

    def deriv(self, beta):
        # derivative of an odd function is even
        return self._eval(beta, lambda x: self.p.b * dz2star(x, self.p.beta1),
                          self.dpoly, 0.0, odd=False)


def tilt_profile(alpha):
    """Bounded odd tilt a / (1 + a^2): unit slope at 0, flat at infinity."""
    return alpha / (1.0 + alpha ** 2)


def turning_candidate_open(params: TurningParams, n: int = 1025,
                           L: float = 40.0, tilt: float = 0.0) -> Curve:
    """Open-line turning candidate on a symmetric uniform grid.

    n odd places a node exactly at alpha = 0.  tilt > 0 adds
    tilt * a/(1+a^2) to z1, unfolding the vertical tangent into a strict
    graph (slope tilt at 0) so forward evolution reaches it at a finite
    positive time.
    """
    if L <= params.beta3:
        raise ValueError("truncation L must exceed beta3")
    alpha = open_grid(n, L)
    return Curve(OPEN, alpha, z1_profile(alpha) + tilt * tilt_profile(alpha),
                 _VerticalProfile(params).value(alpha), L=L)


def turning_candidate_periodic(params: TurningParams, n: int = 256,
                               tilt: float = 0.0) -> Curve:
    """Periodic analogue of the turning candidate.

    z1 = alpha - sin(alpha) (+ tilt * sin(alpha)): z1' = 1 - cos(alpha),
    zero only at 0 when tilt = 0.  z2 is the trig-polynomial analogue of
    the open vertical profile with sign change at beta1:

        z2 = b * sin(alpha) (cos(alpha) - cos(beta1)) / (1 - cos(beta1)).

    Both components are band-limited, so the candidate is entire.  tilt >
    0 unfolds the vertical tangent into a strict graph (min slope =
    tilt), giving a finite turning time under forward evolution.
    """
    alpha = periodic_grid(n)
    a1 = params.beta1
    if not (0 < a1 < np.pi):
        raise ValueError("periodic candidate needs beta1 in (0, pi)")
    z1 = alpha - np.sin(alpha) + tilt * np.sin(alpha)
    z2 = params.b * np.sin(alpha) * (np.cos(alpha) - np.cos(a1)) / (1.0 - np.cos(a1))
    return Curve(PERIODIC, alpha, z1, z2)


# --- sign certificate quadratures -------------------------------------------

_SLOPE_TOL = 1e-8


def _panel_sum(g, a: float, b: float, panels: int) -> float:
    """Composite 16-point Gauss-Legendre sum of g over `panels` equal
    panels of [a, b]."""
    half = 0.5 * (b - a) / panels
    centers = a + half * (2 * np.arange(panels) + 1)
    return half * float(np.sum(g(centers[:, None] + half * _GL_NODES) * _GL_WEIGHTS))


def _half_line_integral(g, bs: float, ts: float) -> float:
    """int_0^inf g for a profile that is smooth on [0, bs], a polynomial
    blend on [bs, ts] and flat beyond ts: composite 16-point
    Gauss-Legendre on [0, bs], on [bs, ts] and on the tail [ts, inf),
    mapped by beta = ts / s onto s in (0, 1].  The panels per piece double
    until two successive sums agree to QUAD_EPSREL.  Panels of fixed
    order rather than one rule of high order (Trefethen, SIAM Review 50,
    2008): z1^2 + z2^2 has complex zeros near the real axis, at about
    0.17 from beta1 on the default candidate, which a single rule on
    [0, bs] resolves only at order ~512."""
    def total(panels):
        return (_panel_sum(g, 0.0, bs, panels) + _panel_sum(g, bs, ts, panels)
                + _panel_sum(lambda s: g(ts / s) * ts / s ** 2, 0.0, 1.0, panels))

    panels, last = 2, total(1)
    while panels <= MAX_QUAD_PANELS:
        now = total(panels)
        gap = abs(now - last)
        if gap <= QUAD_EPSREL * abs(now):
            return now
        panels, last = 2 * panels, now
    raise QuadratureError(f"panel sums still differ by {gap:.3e} "
                          f"at {MAX_QUAD_PANELS} panels per piece")


def dv1_at_zero_reduced(params: TurningParams) -> float:
    """d_alpha v1(0) of the untilted open candidate by the reduced formula
    4 z2'(0) int_0^inf z1 z2 z1' / (z1^2 + z2^2)^2 dbeta, integrated on
    its closed-form profile."""
    vert = _VerticalProfile(params)

    def g(beta):
        zz1 = z1_profile(beta)
        zz2 = vert.value(beta)
        return zz1 * zz2 * dz1_profile(beta) / (zz1 ** 2 + zz2 ** 2) ** 2
    return 4.0 * float(vert.deriv(0.0)) * _half_line_integral(
        g, params.beta2, params.beta3)


def dv1_at_zero_full(params: TurningParams) -> float:
    """d_alpha v1(0) of the untilted open candidate by direct
    differentiation of the contour equation (two-integral form, before
    integration by parts).  The independent reference that
    dv1_at_zero_reduced is checked against in acceptance criterion 4."""
    vert = _VerticalProfile(params)
    dz2_0 = float(vert.deriv(0.0))

    def g(beta):
        zz1, zz2 = z1_profile(beta), vert.value(beta)
        dd1, dd2 = dz1_profile(beta), vert.deriv(beta)
        r2 = zz1 ** 2 + zz2 ** 2
        i1 = (dd1 ** 2 + zz1 * d2z1_profile(beta)) / r2
        i2 = -2.0 * zz1 * dd1 * (zz1 * dd1 - zz2 * (dz2_0 - dd2)) / r2 ** 2
        return i1 + i2
    return 2.0 * _half_line_integral(g, params.beta2, params.beta3)


def dv1_at_zero_periodic(curve: Curve, prefactor: float) -> float:
    """d_alpha v1 at alpha = 0 for a periodic curve, from the full contour
    velocity on a refined grid.

    The velocity gradient at a vertical-tangent point converges slowly in
    the node count (the kernel peak narrows with the flattening of z1),
    so the curve is trigonometrically resampled to DV1_NODES nodes and the
    derivative taken by a centered fourth-order stencil: spectral
    differentiation at the original resolution aliases badly here.
    """
    c = resample(curve, DV1_NODES) if curve.n < DV1_NODES else curve
    v = _muskat_periodic(c, prefactor, lead=2, rows=5)   # nodes -2..2
    h = 2.0 * np.pi / c.n
    return float((-v[4, 0] + 8.0 * v[3, 0] - 8.0 * v[1, 0] + v[0, 0])
                 / (12.0 * h))


@dataclass
class TurningCertificate:
    min_slope: float
    argmin_alpha: float
    dz2_at_zero: float
    dv1_at_zero: float
    passed: bool


def turning_certificate(curve: Curve, dv1: float, d=None) -> TurningCertificate:
    """Machine check of the turning conditions: vertical tangent exactly
    at alpha = 0, positive vertical slope there, and negative d_alpha v1.

    The caller supplies dv1 and, when it has them in closed form, the node
    derivatives d = (d1, d2); else the grid derivative is used.
    """
    d1, d2 = derivative(curve, 1) if d is None else d
    report = min_slope(curve, (d1, d2))
    i0 = int(np.argmin(np.abs(curve.alpha)))
    off_zero = np.abs(curve.alpha - curve.alpha[i0]) > 10 * np.spacing(curve.alpha[-1])
    slope_ok = (abs(d1[i0]) <= _SLOPE_TOL and np.all(d1[off_zero] > 0.0)
                and abs(report.min_slope) <= _SLOPE_TOL)
    passed = bool(slope_ok and d2[i0] > 0.0 and dv1 < 0.0)
    return TurningCertificate(
        min_slope=report.min_slope, argmin_alpha=report.argmin_alpha,
        dz2_at_zero=float(d2[i0]), dv1_at_zero=float(dv1), passed=passed)


def open_certificate(params: TurningParams, n: int, L: float) -> TurningCertificate:
    """The turning certificate of the untilted open candidate on n nodes of
    [-L, L]: the closed-form node derivatives of its profile and the
    reduced quadrature of d_alpha v1(0)."""
    dv1 = dv1_at_zero_reduced(params)   # first: no curve array on the heap above its temporaries
    curve = turning_candidate_open(params, n=n, L=L)
    d = (dz1_profile(curve.alpha), _VerticalProfile(params).deriv(curve.alpha))
    return turning_certificate(curve, dv1, d)


# --- norms and perturbations ------------------------------------------------

def perturb_h4(curve: Curve, epsilon: float, seed: int) -> Curve:
    """Add a reproducible perturbation of exact discrete H^4 size epsilon
    (split across both components), band-limited to modes 1 .. 8."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return curve
    rng = np.random.default_rng(seed)
    n = curve.n
    if curve.topology == PERIODIC:
        period = 2.0 * np.pi
        x = curve.alpha
        envelope = 1.0
    else:
        period = 2.0 * curve.L
        x = np.pi * (curve.alpha + curve.L) / curve.L  # maps to [0, 2pi]
        envelope = np.exp(-((curve.alpha / (curve.L / 8.0)) ** 2))
    fields = []
    for _ in range(2):
        f = np.zeros(n)
        for k in range(1, 9):
            amp_c, amp_s = rng.standard_normal(2)
            f += amp_c * np.cos(k * x) + amp_s * np.sin(k * x)
        fields.append(f * envelope)
    e1, e2 = fields
    size = np.sqrt(discrete_h4_norm(e1, period) ** 2
                   + discrete_h4_norm(e2, period) ** 2)
    scale = epsilon / size
    return Curve(curve.topology, curve.alpha, curve.z1 + scale * e1,
                 curve.z2 + scale * e2, L=curve.L)


# --- water-wave datum --------------------------------------------------------

def waterwave_datum(curve_star: Curve, delta: float,
                    consts: PhysicalConstants = PhysicalConstants(), dt: float = 1e-3,
                    stats: Optional[StepStats] = None):
    """Graph datum for the water-wave turning run.

    Takes the amplitude omega* = d_alpha z1* on the turning curve and
    integrates the system backward by delta (time reversal: negate omega,
    run forward, negate back), with first trial step dt; the step counts
    are added to stats when it is given.  The returned state must be a
    graph, min d_alpha z1 > 0 (min_slope); DeltaTooLargeError otherwise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d1, _ = derivative(curve_star, 1)
    omega_star = d1.copy()
    state = SimState(curve=curve_star, omega=-omega_star, consts=consts)
    back, _ = advance(state, delta, dt, stats)
    datum_curve = back.curve
    datum_omega = -back.omega
    report = min_slope(datum_curve)
    if report.min_slope <= 0.0:
        raise DeltaTooLargeError(
            f"backward run by delta={delta} did not reach a graph: min d_alpha z1 "
            f"= {report.min_slope:.3e} at alpha = {report.argmin_alpha:.4f}")
    return datum_curve, datum_omega
