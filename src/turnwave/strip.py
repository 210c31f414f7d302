"""Complex-strip extension of periodic curves and the analytic solver.

A periodic interface that is real-analytic extends holomorphically to a
horizontal strip around the real parameter line.  This module represents
such extensions by the Fourier coefficients of the flat-subtracted
components (z1(a) - a, z2(a)), evaluates traces on the strip boundaries
Gamma+- by mode multipliers, and provides:

* the scale-of-spaces norm ||f||_r combining L2 and fourth-derivative
  traces on both boundaries;
* the complexified contour operator G (periodic kernel) on any
  horizontal line inside the strip;
* ck_solve, a successive-approximation (Picard) solver on a shrinking
  strip, usable both for stable data and to continue a solution through
  a vertical tangent;
* pointwise complex arc-chord margins and the generalized
  Rayleigh-Taylor function on a variable-height contour Gamma+;
* empirical estimation of the operator bounds entering the contraction
  argument.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .curve import Curve, PERIODIC, periodic_grid
from .singular import _odd_pairs, _tangent_difference, muskat_rhs_periodic
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
        sym = self.coeffs - np.conj(self.coeffs[:, self._reverse_index()])
        if np.abs(sym).max() > 1e-9 * scale:
            raise StripError("coefficients violate conjugate symmetry "
                             "(curve not real on the real axis)")

    def _reverse_index(self):
        n = self.n
        return (-np.arange(n)) % n

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

    def trace_derivative(self, zeta: float, order: int = 1) -> np.ndarray:
        """d^order/d a of (z1, z2) along the line a + i*zeta."""
        k = self.mode_numbers()
        mult = (1j * k) ** order * np.exp(-k * zeta)
        vals = np.fft.ifft(self.coeffs * mult, axis=1) * self.n
        if order == 1:
            vals[0] += 1.0
        return vals

    def real_curve(self) -> Curve:
        tr = self.trace(0.0)
        return Curve(topology=PERIODIC, alpha=self.alpha,
                     z1=tr[0].real.copy(), z2=tr[1].real.copy())

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# r={float(self.r)!r} t={float(self.t)!r} M={self.n}\n")
            writer = csv.writer(fh)
            writer.writerow(["k", "re_p1", "im_p1", "re_p2", "im_p2"])
            for i, k in enumerate(self.mode_numbers()):
                writer.writerow([int(k),
                                 repr(float(self.coeffs[0, i].real)),
                                 repr(float(self.coeffs[0, i].imag)),
                                 repr(float(self.coeffs[1, i].real)),
                                 repr(float(self.coeffs[1, i].imag))])

    @classmethod
    def load_csv(cls, path) -> "StripCurve":
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise StripError("missing strip header line")
            meta = dict(tok.split("=") for tok in header[1:].split())
            rows = list(csv.reader(fh))[1:]
        n = int(meta["M"])
        coeffs = np.zeros((2, n), dtype=complex)
        for row in rows:
            i = int(row[0]) % n
            coeffs[0, i] = float(row[1]) + 1j * float(row[2])
            coeffs[1, i] = float(row[3]) + 1j * float(row[4])
        return cls(coeffs=coeffs, r=float(meta["r"]), t=float(meta["t"]))


def _coeffs_from_samples(z1, z2, alpha) -> np.ndarray:
    n = alpha.size
    p1 = np.fft.fft(np.asarray(z1) - alpha) / n
    p2 = np.fft.fft(np.asarray(z2)) / n
    return np.stack([p1, p2])


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
    coeffs = _coeffs_from_samples(curve.z1, curve.z2, curve.alpha)
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

def _weighted_norm(coeffs: np.ndarray, r: float, j: int) -> float:
    k = modes(coeffs.shape[1]).astype(float)
    weight = 2.0 * np.cosh(2.0 * k * r) * (1.0 + k ** (2 * j))
    return float(np.sqrt(2.0 * np.pi * np.sum(weight[None, :] * np.abs(coeffs) ** 2)))


def strip_norm(strip: StripCurve, r: float = None, j: int = 4) -> float:
    """||f||_r = (sum_+- int |f(a +- ir)|^2 + |d^j f(a +- ir)|^2 da)^(1/2)
    of the flat-subtracted components, by the coefficient (Parseval) formula."""
    return _weighted_norm(strip.coeffs, strip.r if r is None else r, j)


def strip_norm_quadrature(strip: StripCurve, r: float = None, j: int = 4) -> float:
    """The same norm by direct trapezoid quadrature of the Gamma+- traces
    (cross-check for the coefficient formula)."""
    if r is None:
        r = strip.r
    k = strip.mode_numbers()
    h = 2.0 * np.pi / strip.n
    total = 0.0
    for sign in (+1.0, -1.0):
        mult = np.exp(-k * sign * r)
        vals = np.fft.ifft(strip.coeffs * mult, axis=1) * strip.n
        dvals = np.fft.ifft(strip.coeffs * mult * (1j * k) ** j, axis=1) * strip.n
        total += h * (np.sum(np.abs(vals) ** 2) + np.sum(np.abs(dvals) ** 2))
    return float(np.sqrt(total))


def strip_distance(a: StripCurve, b: StripCurve, r: float, j: int = 4) -> float:
    """||a - b||_r with difference coefficients below the double-precision
    floor (relative to the iterate scale) treated as zero: the strip
    weights amplify sub-roundoff noise beyond observability otherwise."""
    if a.n != b.n:
        raise StripError("mode counts differ")
    scale = max(np.abs(a.coeffs).max(), np.abs(b.coeffs).max(), 1e-300)
    d = a.coeffs - b.coeffs
    d = np.where(np.abs(d) > 10.0 * COEFF_FLOOR * scale, d, 0.0)
    return _weighted_norm(d, r, j)


# --- complex arc-chord ---------------------------------------------------------

def complex_arc_chord(strip: StripCurve, n_levels: int = 5,
                      stride: int = 1) -> float:
    """Minimum over sampled strip point pairs of
    |cosh(dz2) - cos(dz1)| / (||Re(zeta - w)|| + |Im(zeta - w)|)^2,
    where ||.|| is distance on the circle.  A margin >= O(1) certifies the
    complex arc-chord condition on the sampled set; ~0 flags contact."""
    zetas = np.linspace(-strip.r, strip.r, n_levels) if strip.r > 0 else np.array([0.0])
    pts_param = []
    pts_z1 = []
    pts_z2 = []
    for z in zetas:
        tr = strip.trace(z)
        sl = slice(None, None, stride)
        pts_param.append(strip.alpha[sl] + 1j * z)
        pts_z1.append(tr[0][sl])
        pts_z2.append(tr[1][sl])
    param = np.concatenate(pts_param)
    z1 = np.concatenate(pts_z1)
    z2 = np.concatenate(pts_z2)
    dz1 = z1[:, None] - z1[None, :]
    dz2 = z2[:, None] - z2[None, :]
    lhs = np.abs(np.cosh(dz2) - np.cos(dz1))
    dpar = param[:, None] - param[None, :]
    dre = np.abs(np.angle(np.exp(1j * dpar.real)))   # circle distance
    rhs = (dre + np.abs(dpar.imag)) ** 2
    mask = rhs > 1e-28
    if not np.any(mask):
        raise StripError("no admissible point pairs")
    return float((lhs[mask] / rhs[mask]).min())


# --- complexified contour operator --------------------------------------------

def complex_G(strip: StripCurve, zeta: float, prefactor: float) -> np.ndarray:
    """The periodic contour velocity evaluated on the line a + i*zeta.

    Same kernel and diagonal limit as the real-axis operator; at zeta = 0
    it reduces to it exactly (identical quadrature).  Returns complex
    samples of (dz1/dt, dz2/dt) as shape (2, n).
    """
    n = strip.n
    tr = strip.trace(zeta)
    w1, w2 = tr[0], tr[1]
    d = strip.trace_derivative(zeta, 1)
    dd = strip.trace_derivative(zeta, 2)
    dz1 = w1[:, None] - w1[None, :]
    dz2 = w2[:, None] - w2[None, :]
    denom = np.cosh(dz2) - np.cos(dz1)
    np.fill_diagonal(denom, 1.0)
    if np.abs(denom).min() < 1e-13:
        raise StripError("complex arc-chord failure: kernel denominator ~ 0")
    if np.abs(d[0] ** 2 + d[1] ** 2).min() < 1e-13:
        raise StripError("degenerate parameterization on the strip line")
    kern = np.sin(dz1) / denom
    return prefactor * _tangent_difference(kern, np.full(n, 2.0 * np.pi / n),
                                           d, dd, 2.0)


def _g_coeffs(strip: StripCurve, prefactor: float) -> np.ndarray:
    """Fourier coefficients (FFT layout / n) of the real-axis contour
    velocity (v1, v2) of the strip curve."""
    curve = strip.real_curve()
    v = muskat_rhs_periodic(curve, prefactor)
    n = strip.n
    return np.stack([np.fft.fft(v[:, 0]) / n, np.fft.fft(v[:, 1]) / n])


# --- successive approximations -------------------------------------------------

def linear_shrink(r0: float, T: float):
    return lambda t: r0 * (1.0 - t / (2.0 * T))


@dataclass
class CKResult:
    times: np.ndarray
    curves: list
    contraction_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def ck_solve(z0: StripCurve, T: float, prefactor: float,
             shrink=None, panels: int = 64, tol: float = 1e-10,
             max_iter: int = 50, norm_bound: float = 1e8,
             chord_bound: float = 1e8) -> CKResult:
    """Successive approximations z^{n+1}(t) = z0 + int_0^t G(z^n(s)) ds.

    The time integral is cumulative composite Simpson on a fixed grid of
    `panels` panels over [0, T]; G is evaluated by real-axis collocation
    and continued in Fourier space.  Iterates must stay in the admissible
    open set: strip norm below norm_bound, real-axis arc-chord ratio
    below chord_bound, and Fourier tail compatible with the current strip
    half-width r(t) (the domain-of-validity guard).
    """
    from scipy.integrate import cumulative_simpson
    from .curve import arc_chord

    if shrink is None:
        shrink = linear_shrink(z0.r, T)
    if panels % 2:
        raise StripError("panels must be even for Simpson")
    n_nodes = panels + 1
    times = np.linspace(0.0, T, n_nodes)
    rs = np.array([max(shrink(t), 0.0) for t in times])
    if np.any(np.diff(rs) > 1e-15):
        raise StripError("shrink schedule must be nonincreasing")

    iters = [np.array([z0.coeffs.copy() for _ in range(n_nodes)])]
    history = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        prev = iters[-1]
        g = np.empty_like(prev)
        for j in range(n_nodes):
            sc = StripCurve(coeffs=prev[j], r=rs[j], t=z0.t + times[j])
            if decay_violation(sc.coeffs, rs[j]) > 1.0:
                raise RegimeExitError(
                    f"iterate {it} leaves the strip of half-width {rs[j]:g} "
                    f"at t={times[j]:g}")
            g[j] = _g_coeffs(sc, prefactor)
        integral = (cumulative_simpson(g.real, x=times, axis=0, initial=0.0)
                    + 1j * cumulative_simpson(g.imag, x=times, axis=0, initial=0.0))
        new = z0.coeffs[None, :, :] + integral
        diffs = [
            strip_distance(StripCurve(coeffs=new[j], r=rs[j]),
                           StripCurve(coeffs=prev[j], r=rs[j]), r=rs[j])
            for j in range(n_nodes)
        ]
        step = float(max(diffs))
        history.append(step)
        for j in (0, n_nodes // 2, n_nodes - 1):
            sc = StripCurve(coeffs=new[j], r=rs[j])
            if strip_norm(sc, r=rs[j]) > norm_bound:
                raise RegimeExitError(f"iterate norm exceeds {norm_bound:g}")
            if arc_chord(sc.real_curve()) > chord_bound:
                raise RegimeExitError("real-trace arc-chord bound exceeded")
        iters.append(new)
        if len(iters) > 2:
            iters.pop(0)
        if step < tol:
            converged = True
            break
    final = iters[-1]
    curves = [StripCurve(coeffs=final[j], r=rs[j], t=z0.t + times[j])
              for j in range(n_nodes)]
    return CKResult(times=z0.t + times, curves=curves,
                    contraction_history=history, iterations=it,
                    converged=converged)


# --- empirical operator bounds -------------------------------------------------

@dataclass
class GBounds:
    c_size: float        # ||G(z)||_{r'} (r - r') / ||z||_r
    c_lipschitz: float   # ||G(z2) - G(z1)||_{r'} (r - r') / ||z2 - z1||_r
    c_modulus: float     # sup |G(z)(a) - G(z)(a - b)| / |b|
    n_samples: int


def estimate_G_bounds(samples, r: float, r_prime: float,
                      prefactor: float) -> GBounds:
    """Fitted constants for the size, Lipschitz, and modulus-of-continuity
    bounds of G between strip half-widths r > r'.  Empirical maxima over
    the sample set, not rigorous bounds."""
    if not r > r_prime >= 0.0:
        raise StripError("need r > r' >= 0")
    gap = r - r_prime
    samples = list(samples)
    gs = []
    c_size = 0.0
    c_mod = 0.0
    for s in samples:
        gk = _g_coeffs(s, prefactor)
        gs.append(gk)
        gsc = StripCurve(coeffs=gk, r=r_prime)
        c_size = max(c_size, gap * strip_norm(gsc, r=r_prime) / strip_norm(s, r=r))
        vals = np.fft.ifft(gk, axis=1) * s.n
        for shift in (1, s.n // 8, s.n // 3):
            beta = 2.0 * np.pi * shift / s.n
            dv = np.abs(vals - np.roll(vals, shift, axis=1)).max()
            c_mod = max(c_mod, dv / beta)
    c_lip = 0.0
    npairs = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            dz = strip_distance(samples[i], samples[j], r=r)
            if dz < 1e-14:
                continue
            dg = strip_distance(StripCurve(coeffs=gs[i], r=r_prime),
                                StripCurve(coeffs=gs[j], r=r_prime), r=r_prime)
            c_lip = max(c_lip, gap * dg / dz)
            npairs += 1
    return GBounds(c_size=c_size, c_lipschitz=c_lip, c_modulus=c_mod,
                   n_samples=len(samples))


# --- generalized Rayleigh-Taylor on a variable-height contour -------------------

@dataclass
class GeneralizedRTReport:
    values: np.ndarray
    min_value: float
    passed: bool


def _eval_nonuniform(strip: StripCurve, zeta_points: np.ndarray,
                     order: int = 0) -> np.ndarray:
    """(z1, z2) (order 0) or their parameter derivatives at the complex
    points zeta_points, by direct mode summation."""
    k = strip.mode_numbers()
    basis = np.exp(1j * np.outer(zeta_points, k))     # (m, n_modes)
    mult = (1j * k) ** order if order else np.ones_like(k, dtype=complex)
    vals = basis @ (strip.coeffs * mult).T            # (m, 2)
    out = vals.T.copy()
    if order == 0:
        out[0] += zeta_points
    elif order == 1:
        out[0] += 1.0
    return out


def generalized_rt(strip: StripCurve, h, dh_dx, dh_dt,
                   prefactor_scale: float = 1.0) -> GeneralizedRTReport:
    """RT(zeta) on Gamma+ = {x + i h(x)}:

    Re(-2 pi z1' / ((z1')^2 + (z2')^2) * (1 + i h_x)^-1)
      + Im((PV int_{Gamma+} sin(dz1)/(cosh(dz2) - cos(dz1)) dw + i h_t)
           * (1 + i h_x)^-1),

    with the PV integral by the alternating-point rule in the contour
    parameter (odd-pair block only; the arc-chord guard checks those
    pairs).  Positivity of the minimum is the stability verdict.
    """
    x = strip.alpha
    n = x.size
    if n % 2:
        raise StripError("even node count required for the PV rule")
    hx = np.asarray(h(x) if callable(h) else h, dtype=float)
    dhx = np.asarray(dh_dx(x) if callable(dh_dx) else dh_dx, dtype=float)
    dht = np.asarray(dh_dt(x) if callable(dh_dt) else dh_dt, dtype=float)
    if np.any(np.abs(hx) > strip.r + 1e-12):
        raise StripError("contour height exceeds the strip half-width")
    zeta = x + 1j * hx
    z = _eval_nonuniform(strip, zeta, 0)
    dz = _eval_nonuniform(strip, zeta, 1)
    speed2 = dz[0] ** 2 + dz[1] ** 2
    if np.abs(speed2).min() < 1e-13:
        raise StripError("degenerate parameterization on Gamma+")
    jac = 1.0 / (1.0 + 1j * dhx)

    d1 = z[0][::2, None] - z[0][None, 1::2]
    d2 = z[1][::2, None] - z[1][None, 1::2]
    denom = np.cosh(d2) - np.cos(d1)
    if np.abs(denom).min() < 1e-13:
        raise StripError("complex arc-chord failure on Gamma+")
    dw = (1.0 + 1j * dhx) * prefactor_scale
    pv = _odd_pairs((4.0 * np.pi / n) * np.sin(d1) / denom) @ dw

    vals = (np.real(-2.0 * np.pi * dz[0] / speed2 * jac)
            + np.imag((pv + 1j * dht) * jac))
    return GeneralizedRTReport(values=vals, min_value=float(vals.min()),
                               passed=bool(vals.min() > 0.0))
