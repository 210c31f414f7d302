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

import numpy as np

from .curve import Curve, PERIODIC, arc_chord, periodic_grid
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
CHORD_BOUND = 1e8           # largest admissible real-axis arc-chord ratio


@dataclass
class StripCurve:
    """Fourier-side representation of (z1 - a, z2) with strip half-width r.

    coeffs has shape (2, n) in FFT layout (mode order given by
    mode_numbers()); reality of the curve on the real axis forces
    conjugate symmetry, which is validated at construction.
    """

    coeffs: np.ndarray
    r: float
    t: float = 0.0

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

    def mode_numbers(self) -> np.ndarray:
        return modes(self.n)

    @property
    def alpha(self) -> np.ndarray:
        return periodic_grid(self.n)

    def trace(self, zeta: float) -> np.ndarray:
        """Complex samples of (z1, z2) on the line a + i*zeta, a on the grid."""
        k = self.mode_numbers()
        mult = np.exp(-k * zeta)
        vals = np.fft.ifft(self.coeffs * mult, axis=1) * self.n
        z1 = self.alpha + 1j * zeta + vals[0]
        return np.stack([z1, vals[1]])

    def real_curve(self) -> Curve:
        return _real_curve(self.coeffs)


def _real_curve(coeffs: np.ndarray) -> Curve:
    """The curve on the real axis, from its coefficients (2, n)."""
    n = coeffs.shape[1]
    vals = np.fft.ifft(coeffs, axis=1).real * n
    alpha = periodic_grid(n)
    return Curve(topology=PERIODIC, alpha=alpha, z1=alpha + vals[0], z2=vals[1])


def _floored_magnitudes(coeffs: np.ndarray):
    """Coefficient magnitudes with the double-precision roundoff floor
    zeroed out, plus the peak magnitude."""
    mag = np.abs(coeffs)
    peak = max(mag.max(), 1e-300)
    return np.where(mag > COEFF_FLOOR * peak, mag, 0.0), peak


def amplified_tail(coeffs: np.ndarray, r: float) -> float:
    """Max over the top TAIL_FRACTION of modes of |c_k| e^{r|k|},
    relative to the overall peak magnitude; coefficients at the roundoff
    floor count as zero."""
    n = coeffs.shape[1]
    k = np.abs(modes(n))
    tail = k >= (1.0 - TAIL_FRACTION) * k.max()
    mag, peak = _floored_magnitudes(coeffs)
    with np.errstate(over="ignore"):
        amp = np.where(mag > 0.0, mag * np.exp(r * k)[None, :], 0.0)
    return float(amp[:, tail].max() / peak)


def decay_violation(coeffs: np.ndarray, r: float) -> float:
    """Max over resolved modes of |c_k| e^{r(|k| - margin)} / peak; a value
    > 1 means the coefficient decay is inconsistent with analyticity on a
    strip of half-width r (the decay-fit invariant)."""
    n = coeffs.shape[1]
    k = np.abs(modes(n))
    mag, peak = _floored_magnitudes(coeffs)
    with np.errstate(over="ignore"):
        amp = np.where(mag > 0.0,
                       mag * np.exp(r * np.maximum(k - DECAY_MARGIN_MODES, 0))[None, :],
                       0.0)
    return float(amp.max() / peak)


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
    if tail > TAIL_TOLERANCE:
        raise InsufficientAnalyticityError(
            f"amplified Fourier tail {tail:.3e} exceeds {TAIL_TOLERANCE:g}; "
            f"curve is not resolved as analytic on half-width {r:g}")
    viol = decay_violation(coeffs, r)
    if viol > 1.0:
        raise InsufficientAnalyticityError(
            f"coefficient decay violates the e^(-r|k|) envelope by factor "
            f"{viol:.3e} at half-width {r:g}")
    return StripCurve(coeffs=coeffs, r=r, t=t)


# --- scale-of-spaces norm ------------------------------------------------------

def strip_norm(coeffs: np.ndarray, r: float, j: int = 4) -> float:
    """||f||_r = (sum_+- int |f(a +- ir)|^2 + |d^j f(a +- ir)|^2 da)^(1/2)
    of the flat-subtracted components with coefficients (2, n), by the
    coefficient (Parseval) formula."""
    k = modes(coeffs.shape[1]).astype(float)
    weight = 2.0 * np.cosh(2.0 * k * r) * (1.0 + k ** (2 * j))
    return float(np.sqrt(2.0 * np.pi * np.sum(weight[None, :] * np.abs(coeffs) ** 2)))


def strip_distance(a: np.ndarray, b: np.ndarray, r: float, j: int = 4) -> float:
    """||a - b||_r of two coefficient arrays, with difference coefficients
    below the double-precision floor (relative to the iterate scale)
    treated as zero: the strip weights amplify sub-roundoff noise beyond
    observability otherwise."""
    if a.shape != b.shape:
        raise StripError("mode counts differ")
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    d = a - b
    d = np.where(np.abs(d) > 10.0 * COEFF_FLOOR * scale, d, 0.0)
    return strip_norm(d, r, j)


# --- contour operator --------------------------------------------------------

def _g_coeffs(coeffs: np.ndarray, prefactor: float) -> np.ndarray:
    """Fourier coefficients (FFT layout / n) of the real-axis contour
    velocity (v1, v2) of the curve with coefficients (2, n)."""
    v = muskat_rhs_periodic(_real_curve(coeffs), prefactor)
    n = coeffs.shape[1]
    return np.stack([np.fft.fft(v[:, 0]) / n, np.fft.fft(v[:, 1]) / n])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_j} y at every node j, y sampled at the increasing nodes x
    along axis 0.  Interval i integrates the quadratic through nodes
    (i, i+1, i+2) when i is even, and the one through (i-1, i, i+1) when
    i is odd or the last interval."""
    def first_gap(f1, f2, f3, h1, h2):
        """Integral over the gap h1 between the first two of three points
        of the quadratic through them; h2 is the gap to the third."""
        r = h1 / (h1 + h2)
        q = r * (h1 / h2)
        return h1 / 6 * ((3 - r) * f1 + (3 + q + r) * f2 - q * f3)

    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    forward = first_gap(y[:-2], y[1:-1], y[2:], h[:-1], h[1:])     # interval i
    backward = first_gap(y[2:], y[1:-1], y[:-2], h[1:], h[:-1])    # interval i + 1
    pieces = np.empty_like(y[1:])
    pieces[:-1:2], pieces[1::2] = forward[::2], backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(pieces, axis=0)])


# --- successive approximations -------------------------------------------------

@dataclass
class CKResult:
    times: np.ndarray
    curves: list
    contraction_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def ck_solve(z0: StripCurve, T: float, prefactor: float,
             panels: int = 64, tol: float = 1e-10,
             max_iter: int = 50, norm_bound: float = 1e8) -> CKResult:
    """Successive approximations z^{n+1}(t) = z0 + int_0^t G(z^n(s)) ds.

    The time integral is cumulative composite Simpson (_cumulative_simpson)
    on a fixed grid of `panels` panels over [0, T]; G is evaluated by
    real-axis collocation and continued in Fourier space.  The strip
    half-width shrinks linearly, r(t) = r0 (1 - t / 2T), from z0.r to
    z0.r / 2.  Iterates must stay in the admissible open set: strip norm
    below norm_bound, real-axis arc-chord ratio below CHORD_BOUND, and
    Fourier tail compatible with the current strip half-width r(t) (the
    domain-of-validity guard).  The sweeps work on coefficient arrays;
    only the returned curves are StripCurves.
    """
    if panels % 2:
        raise StripError("panels must be even for Simpson")
    n_nodes = panels + 1
    times = np.linspace(0.0, T, n_nodes)
    rs = z0.r * (1.0 - times / (2.0 * T))

    def check_admissible(coeffs, r):
        if strip_norm(coeffs, r) > norm_bound:
            raise RegimeExitError(f"iterate norm exceeds {norm_bound:g}")
        if arc_chord(_real_curve(coeffs)) > CHORD_BOUND:
            raise RegimeExitError("real-trace arc-chord bound exceeded")

    # z^n(0) = z0 in every sweep: check it and evaluate G(z0) once
    if decay_violation(z0.coeffs, rs[0]) > 1.0:
        raise RegimeExitError(
            f"iterate 1 leaves the strip of half-width {rs[0]:g} at t=0")
    g0 = _g_coeffs(z0.coeffs, prefactor)
    check_admissible(z0.coeffs, rs[0])

    new = np.repeat(z0.coeffs[None], n_nodes, axis=0)
    history = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        prev = new
        g = np.empty_like(prev)
        g[0] = g0
        for j in range(1, n_nodes):
            if decay_violation(prev[j], rs[j]) > 1.0:
                raise RegimeExitError(
                    f"iterate {it} leaves the strip of half-width {rs[j]:g} "
                    f"at t={times[j]:g}")
            g[j] = _g_coeffs(prev[j], prefactor)
        new = z0.coeffs[None, :, :] + _cumulative_simpson(g, times)
        step = max(strip_distance(new[j], prev[j], rs[j]) for j in range(n_nodes))
        history.append(step)
        for j in (n_nodes // 2, n_nodes - 1):
            check_admissible(new[j], rs[j])
        if step < tol:
            converged = True
            break
    curves = [StripCurve(coeffs=new[j], r=rs[j], t=z0.t + times[j])
              for j in range(n_nodes)]
    return CKResult(times=z0.t + times, curves=curves,
                    contraction_history=history, iterations=it,
                    converged=converged)
