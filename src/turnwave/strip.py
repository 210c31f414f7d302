"""Complex-strip extension of periodic curves and the analytic solver.

A periodic interface that is real-analytic extends holomorphically to a
horizontal strip around the real parameter line.  This module represents
such extensions by the Fourier coefficients of the flat-subtracted
components (z1(a) - a, z2(a)), evaluates traces on horizontal lines by
mode multipliers, and provides:

* the analyticity checks that decide whether a sampled curve extends to
  a given half-width;
* the scale-of-spaces norm ||f||_r combining L2 and fourth-derivative
  traces on both boundaries, and the distance it induces;
* ck_solve, a successive-approximation (Picard) solver on a shrinking
  strip, usable both for stable data and to continue a solution through
  a vertical tangent.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curve import ARC_CHORD_MAX, Curve, PERIODIC, arc_chord, periodic_grid
from .singular import muskat_rhs_periodic
from .spectral import modes


class StripError(Exception):
    pass


class InsufficientAnalyticityError(StripError):
    pass


class RegimeExitError(StripError):
    """A Picard iterate left the admissible open set."""


TAIL_FRACTION = 0.25        # top fraction of modes inspected for decay
TAIL_TOLERANCE = 1e-13      # amplified-tail threshold relative to the peak
COEFF_FLOOR = 1e-15         # relative floor below which coefficients count as 0
DECAY_MARGIN_MODES = 8      # slack modes in the pointwise decay check
NORM_GROWTH = 1e4           # largest admissible iterate strip norm, relative to the datum's
START_PANELS = 4            # Simpson intervals of ck_solve's first time grid (a multiple of 4)
MAX_DOUBLINGS = 6           # the interval count doubles at most this often (to 256)


@dataclass
class StripCurve:
    """Fourier-side representation of (z1 - a, z2) with strip half-width r.

    coeffs has shape (2, n) in FFT layout (mode order given by
    spectral.modes); reality of the curve on the real axis forces
    conjugate symmetry, which is validated at construction.
    """

    coeffs: np.ndarray
    r: float
    t: float = 0.0
    # the checked grid of the real curves, shared by the curves of a
    # ck_solve; None makes a new periodic_grid(n)
    grid: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != 2:
            raise StripError("coeffs must have shape (2, n)")
        if self.r < 0.0:
            raise StripError("strip half-width must be >= 0")
        scale = max(np.abs(self.coeffs).max(), 1e-30)
        sym = self.coeffs - np.conj(self.coeffs[:, -np.arange(self.n) % self.n])
        if np.abs(sym).max() > 1e-9 * scale:
            raise StripError("coefficients violate conjugate symmetry "
                             "(curve not real on the real axis)")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def real_curve(self) -> Curve:
        return _real_curve(self.coeffs, self.grid)


def _real_curve(coeffs: np.ndarray, grid=None) -> Curve:
    """The curve on the real axis, from its coefficients (2, n), on grid,
    periodic_grid(n) by default."""
    n = coeffs.shape[1]
    vals = np.fft.ifft(coeffs, axis=1).real * n
    alpha = periodic_grid(n) if grid is None else grid
    return Curve(topology=PERIODIC, alpha=alpha, z1=alpha + vals[0], z2=vals[1])


def _amplified(coeffs: np.ndarray, r: float, margin: int = 0):
    """|c_k| e^{r max(|k| - margin, 0)} relative to the peak magnitude, per
    component and mode, with coefficients at the double-precision roundoff
    floor counted as zero; and |k| per mode."""
    k = np.abs(modes(coeffs.shape[1]))
    mag = np.abs(coeffs)
    peak = max(mag.max(), 1e-300)
    with np.errstate(over="ignore"):
        amp = np.where(mag > COEFF_FLOOR * peak,
                       mag * np.exp(r * np.maximum(k - margin, 0))[None, :], 0.0)
    return amp / peak, k


def amplified_tail(coeffs: np.ndarray, r: float) -> float:
    """Max over the top TAIL_FRACTION of modes of |c_k| e^{r|k|},
    relative to the overall peak magnitude; coefficients at the roundoff
    floor count as zero."""
    amp, k = _amplified(coeffs, r)
    return float(amp[:, k >= (1.0 - TAIL_FRACTION) * k.max()].max())


def decay_violation(coeffs: np.ndarray, r: float) -> float:
    """Max over resolved modes of |c_k| e^{r(|k| - margin)} / peak; a value
    > 1 means the coefficient decay is inconsistent with analyticity on a
    strip of half-width r (the decay-fit invariant)."""
    return float(_amplified(coeffs, r, DECAY_MARGIN_MODES)[0].max())


def extend_to_strip(curve: Curve, r: float, t: float = 0.0) -> StripCurve:
    """Analytic extension of a periodic curve to half-width r.

    Fails when the amplified Fourier tail exceeds TAIL_TOLERANCE of the
    peak coefficient (under-resolution) or when the coefficient decay is
    slower than e^{-r|k|} (curve not analytic that far out).
    """
    if curve.topology != PERIODIC:
        raise StripError("only periodic curves extend to a strip")
    coeffs = np.stack([np.fft.fft(curve.z1 - curve.alpha),
                       np.fft.fft(curve.z2)]) / curve.n
    tail = amplified_tail(coeffs, r)
    if not tail <= TAIL_TOLERANCE:
        raise InsufficientAnalyticityError(
            f"amplified Fourier tail {tail:.3e} exceeds {TAIL_TOLERANCE:g}; "
            f"curve is not resolved as analytic on half-width {r:g}")
    viol = decay_violation(coeffs, r)
    if not viol <= 1.0:
        raise InsufficientAnalyticityError(
            f"coefficient decay violates the e^(-r|k|) envelope by factor "
            f"{viol:.3e} at half-width {r:g}")
    return StripCurve(coeffs=coeffs, r=r, t=t)


# --- scale-of-spaces norm ------------------------------------------------------

@lru_cache(maxsize=(START_PANELS << MAX_DOUBLINGS) + 1)
def _strip_weight(n: int, r: float) -> np.ndarray:
    """2 cosh(2 k r) (1 + k^8) for the n modes k, read-only: the weights of
    strip_norm at half-width r.  ck_solve takes the norms of each node of
    a time grid at that node's r on every sweep, so the cache holds the
    nodes of the finest grid."""
    k = modes(n).astype(float)
    weight = 2.0 * np.cosh(2.0 * k * r) * (1.0 + k ** 8)
    weight.flags.writeable = False
    return weight


def strip_norm(coeffs: np.ndarray, r: float) -> float:
    """||f||_r = (sum_+- int |f(a +- ir)|^2 + |d^4 f(a +- ir)|^2 da)^(1/2)
    of the flat-subtracted components with coefficients (2, n), by the
    coefficient (Parseval) formula."""
    weight = _strip_weight(coeffs.shape[1], r)
    return float(np.sqrt(2.0 * np.pi * np.sum(weight[None, :] * np.abs(coeffs) ** 2)))


def strip_distance(a: np.ndarray, b: np.ndarray, r: float) -> float:
    """||a - b||_r of two coefficient arrays, with difference coefficients
    below the double-precision floor (relative to the iterate scale)
    treated as zero: the strip weights amplify sub-roundoff noise beyond
    observability otherwise."""
    if a.shape != b.shape:
        raise StripError("mode counts differ")
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    d = a - b
    d = np.where(np.abs(d) > 10.0 * COEFF_FLOOR * scale, d, 0.0)
    return strip_norm(d, r)


# --- contour operator --------------------------------------------------------

def _g_coeffs(curve: Curve, prefactor: float) -> np.ndarray:
    """Fourier coefficients (FFT layout / n) of the contour velocity (v1,
    v2) of a real curve."""
    v = muskat_rhs_periodic(curve, prefactor)
    return np.fft.fft(v, axis=0).T / curve.n


def _quadratic_integral(f0, f1, f2, h: float, s: float):
    """int_0^{s h} of the quadratic through (0, f0), (h, f1), (2h, f2):
    the Simpson panel quadratic integrated from the panel start.  s = 1
    gives h/12 (5 f0 + 8 f1 - f2) and s = 2 Simpson's h/3 (f0 + 4 f1 + f2)."""
    return h * ((s - 0.75 * s ** 2 + s ** 3 / 6.0) * f0 + (s ** 2 - s ** 3 / 3.0) * f1
                + (s ** 3 / 6.0 - 0.25 * s ** 2) * f2)


def _simpson_nodes(z0: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """z0 + int_0^{t_j} Q at every node t_j = j h, where Q is the piecewise
    quadratic through the samples g (axis 0, an odd count) on each panel
    [t_2m, t_2m+2]: CKResult.at at the nodes."""
    z = np.empty_like(g)
    z[0] = z0
    for m in range(0, len(g) - 1, 2):
        z[m + 1] = z[m] + _quadratic_integral(*g[m:m + 3], h, 1.0)
        z[m + 2] = z[m] + _quadratic_integral(*g[m:m + 3], h, 2.0)
    return z


# --- successive approximations -------------------------------------------------

PICARD_TOL = 1e-10      # bound on the sweep-to-sweep strip distance and the time error
PICARD_MAX_ITER = 50    # sweeps before a solve is returned unconverged


@dataclass
class CKResult:
    """A ck_solve solution: the node times and curves, the last sweep's G
    at the nodes (g), the Picard record, the time-error estimate of the
    chosen grid and the G evaluations the solve took."""
    times: np.ndarray
    curves: list
    g: np.ndarray
    contraction_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    time_error: float = 0.0
    g_evaluations: int = 0

    def at(self, t: float) -> StripCurve:
        """Dense output at time t in [times[0], times[-1]]: the node value at
        the start of t's Simpson panel plus the integral of that panel's
        quadratic through G up to t.  It needs no new G evaluations."""
        m = 2 * int(np.searchsorted(self.times[2:-1:2], t, side="right"))
        h = self.times[m + 1] - self.times[m]
        coeffs = self.curves[m].coeffs + _quadratic_integral(*self.g[m:m + 3], h,
                                                             (t - self.times[m]) / h)
        r = np.interp(t, self.times, [c.r for c in self.curves])
        return StripCurve(coeffs=coeffs, r=r, t=t, grid=self.curves[m].grid)


def ck_solve(z0: StripCurve, T: float, prefactor: float) -> CKResult:
    """Successive approximations z^{n+1}(t) = z0 + int_0^t G(z^n(s)) ds.

    G is evaluated by real-axis collocation and continued in Fourier
    space; the time integral is composite Simpson (_simpson_nodes) on
    START_PANELS intervals over [0, T] at first.  Once the sweeps
    converge, E = max |S_p - S_p/2| / 15 over nodes and coefficients
    (Richardson, with S_p/2 Simpson on every other node) estimates the
    time error from the last sweep's G; while E > PICARD_TOL the interval
    count doubles, at most MAX_DOUBLINGS times.  The strip half-width shrinks
    linearly, r(t) = r0 (1 - t / 2T), from z0.r to z0.r / 2.  Iterates
    must stay in the admissible open set: a finite strip norm at most
    NORM_GROWTH times the strip norm of z0 at z0.r, real-axis arc-chord
    ratio at most ARC_CHORD_MAX, and Fourier tail compatible with r(t)
    wherever G is evaluated (the domain-of-validity guard); a check that
    reads nan counts as outside.  The norm bound is relative: the datum's
    own norm, roundoff in its top modes times the strip weights, passes
    any fixed bound on a fine enough grid.  The arc-chord check asks
    arc_chord only whether the sup exceeds ARC_CHORD_MAX (its floor).
    The sweeps work on coefficient arrays; only the returned curves are
    StripCurves.  The real curves of the solve, and of the curves it
    returns, share the grid of z0's real curve; a real curve that the
    admissibility check builds is the one the next sweep's G takes.
    """
    def check_admissible(coeffs, r, real=None):
        """Raise RegimeExitError outside the admissible set; else return the
        real curve of coeffs (real, when given)."""
        if not strip_norm(coeffs, r) <= norm_bound < np.inf:
            raise RegimeExitError(f"iterate norm exceeds {norm_bound:g}")
        real = _real_curve(coeffs, grid) if real is None else real
        if not arc_chord(real, floor=ARC_CHORD_MAX) <= ARC_CHORD_MAX:
            raise RegimeExitError("real-trace arc-chord bound exceeded")
        return real

    def check_strip(coeffs, r, t, it):
        if not decay_violation(coeffs, r) <= 1.0:
            raise RegimeExitError(
                f"iterate {it} leaves the strip of half-width {r:g} at t={t:g}")

    # z^n(0) = z0 in every sweep: check it and evaluate G(z0) once
    norm_bound = NORM_GROWTH * strip_norm(z0.coeffs, z0.r)
    check_strip(z0.coeffs, z0.r, 0.0, 1)
    real0 = z0.real_curve()
    grid = real0.alpha
    g0 = _g_coeffs(real0, prefactor)
    check_admissible(z0.coeffs, z0.r, real0)

    evaluations = 1
    for panels in (START_PANELS << k for k in range(MAX_DOUBLINGS + 1)):
        times = np.linspace(0.0, T, panels + 1)
        rs = z0.r * (1.0 - times / (2.0 * T))
        new = np.repeat(z0.coeffs[None], panels + 1, axis=0)
        history, reals = [], {}
        for it in range(1, PICARD_MAX_ITER + 1):
            prev = new
            g = [g0]
            for j in range(1, panels + 1):
                check_strip(prev[j], rs[j], times[j], it)
                # the first sweep of a grid iterates on z0 at every node; the
                # last sweep's admissibility check built two of the real curves
                g.append(g0 if it == 1 else _g_coeffs(
                    reals[j] if j in reals else _real_curve(prev[j], grid), prefactor))
            g = np.stack(g)
            evaluations += panels if it > 1 else 0
            new = _simpson_nodes(z0.coeffs, g, T / panels)
            step = max(strip_distance(new[j], prev[j], rs[j]) for j in range(panels + 1))
            history.append(step)
            reals = {j: check_admissible(new[j], rs[j]) for j in (panels // 2, panels)}
            if step < PICARD_TOL:
                break
        converged = step < PICARD_TOL
        coarse = _simpson_nodes(z0.coeffs, g[::2], 2.0 * T / panels)
        error = float(np.abs(new[::2] - coarse).max() / 15.0)
        if not converged or error <= PICARD_TOL:
            break
    else:
        raise RegimeExitError(f"time error estimate {error:.3e} exceeds "
                              f"{PICARD_TOL:g} at {panels} panels")
    curves = [StripCurve(coeffs=new[j], r=rs[j], t=z0.t + times[j], grid=grid)
              for j in range(panels + 1)]
    return CKResult(times=z0.t + times, curves=curves, g=g,
                    contraction_history=history, iterations=it,
                    converged=converged, time_error=error,
                    g_evaluations=evaluations)
