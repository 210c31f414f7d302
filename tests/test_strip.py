"""Analytic-strip machinery: traces, analyticity checks, norms, Picard
continuation on a shrinking strip."""

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants
from turnwave.curve import Curve, periodic_grid
from turnwave.strip import (InsufficientAnalyticityError, RegimeExitError,
                            amplified_tail, ck_solve, decay_violation,
                            extend_to_strip, strip_distance, strip_norm)

from conftest import flat_curve

PREF = PhysicalConstants().periodic_prefactor


def eps_cos_curve(n=64, eps=0.01, k=1):
    a = periodic_grid(n)
    return Curve("periodic", a, a.copy(), eps * np.cos(k * a))


def test_extend_accepts_entire_data():
    sc = extend_to_strip(eps_cos_curve(), 0.3)
    assert sc.r == 0.3
    assert sc.n == 64


def test_extend_rejects_radius_beyond_analyticity():
    """Synthetic data with coefficient decay exp(-rho0 |k|) extends to
    rho0 / 2 but not to 2 rho0."""
    n, rho0 = 256, 0.8
    k = np.fft.fftfreq(n, 1.0 / n)
    coeffs = np.exp(-rho0 * np.abs(k)) * 1e-2
    coeffs[0] = 0.0
    z2 = np.fft.ifft(coeffs * n).real
    a = periodic_grid(n)
    c = Curve("periodic", a, a.copy(), z2)
    extend_to_strip(c, rho0 / 2)
    with pytest.raises(InsufficientAnalyticityError):
        extend_to_strip(c, 2 * rho0)


def test_trace_closed_form():
    """z2 = eps cos(a) traced at height zeta: eps cos(a + i zeta)."""
    eps, r = 0.01, 0.2
    sc = extend_to_strip(eps_cos_curve(eps=eps), r)
    for zeta in (r, -r, 0.13j.imag):
        tr = sc.trace(zeta)
        target = eps * np.cos(sc.alpha + 1j * zeta)
        assert np.max(np.abs(tr[1] - target)) < 1e-9
        assert np.max(np.abs(tr[0] - (sc.alpha + 1j * zeta))) < 1e-9


def test_trace_at_zero_is_real_curve():
    c = eps_cos_curve(eps=0.05, k=3)
    sc = extend_to_strip(c, 0.1)
    rc = sc.real_curve()
    assert np.max(np.abs(rc.z2 - c.z2)) < 1e-13
    assert np.max(np.abs(rc.z1 - c.z1)) < 1e-13


def strip_norm_quadrature(strip, j=4):
    """strip_norm by direct trapezoid quadrature of the traces on both
    boundaries a +- i r (reference for the coefficient formula)."""
    k = strip.mode_numbers()
    h = 2.0 * np.pi / strip.n
    total = 0.0
    for sign in (+1.0, -1.0):
        mult = np.exp(-k * sign * strip.r)
        vals = np.fft.ifft(strip.coeffs * mult, axis=1) * strip.n
        dvals = np.fft.ifft(strip.coeffs * mult * (1j * k) ** j, axis=1) * strip.n
        total += h * (np.sum(np.abs(vals) ** 2) + np.sum(np.abs(dvals) ** 2))
    return float(np.sqrt(total))


def test_strip_norm_parseval_vs_quadrature():
    sc = extend_to_strip(eps_cos_curve(eps=0.02, k=2), 0.15)
    a = strip_norm(sc.coeffs, sc.r)
    b = strip_norm_quadrature(sc)
    assert abs(a - b) < 1e-10 * max(a, b)


def test_strip_distance_identity_and_floor():
    sc = extend_to_strip(eps_cos_curve(), 0.2)
    assert strip_distance(sc.coeffs, sc.coeffs, r=sc.r) == 0.0


def test_amplified_tail_and_decay_violation_flat():
    sc = extend_to_strip(flat_curve(64), 0.5)
    assert amplified_tail(sc.coeffs, sc.r) == 0.0
    assert decay_violation(sc.coeffs, sc.r) == 0.0


@pytest.mark.parametrize("intervals", [8, 7])
def test_cumulative_simpson_exact_on_quadratics(intervals):
    """Every cumulative integral of a quadratic is exact on uneven nodes,
    for an even and an odd number of intervals; complex values integrate
    componentwise."""
    from turnwave.strip import _cumulative_simpson
    x = np.sort(np.random.default_rng(1).uniform(0.0, 2.0, intervals + 1))
    y = (3 * x ** 2 - 2 * x + 1) + 1j * (x - x ** 2)
    antiderivative = (x ** 3 - x ** 2 + x) + 1j * (x ** 2 / 2 - x ** 3 / 3)
    integral = _cumulative_simpson(y[:, None, None], x)[:, 0, 0]
    assert np.max(np.abs(integral - (antiderivative - antiderivative[0]))) < 1e-13


def test_shrink_schedules():
    """The strip half-width shrinks linearly from r0 at t = 0 to r0 / 2 at
    t = T, for forward and backward solves alike."""
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2, t=0.3)
    for prefactor in (PREF, -PREF):
        res = ck_solve(sc, 0.02, prefactor, panels=8)
        rs = np.array([c.r for c in res.curves])
        assert rs[0] == 0.2
        assert rs[-1] == pytest.approx(0.1, rel=1e-15)
        assert np.all(np.diff(rs) < 0.0)
        assert res.times[0] == 0.3 and res.times[-1] == pytest.approx(0.32)


def test_ck_solve_matches_rk4_small_data():
    from turnwave.stepping import SimState, advance
    c = eps_cos_curve(n=64, eps=0.01)
    sc = extend_to_strip(c, 0.2)
    res = ck_solve(sc, 0.02, PREF, panels=8)
    assert res.converged
    st, _ = advance(SimState(c), 0.02, 1e-4)
    rc = res.curves[-1].real_curve()
    assert np.max(np.abs(rc.z2 - st.curve.z2)) < 1e-8


def test_ck_solve_evaluates_initial_node_once(monkeypatch):
    """z^n(0) = z0 in every sweep, so G runs once there and once per sweep
    at each of the other panels nodes."""
    import turnwave.strip as strip_mod
    calls = []
    rhs = strip_mod.muskat_rhs_periodic

    def counted(curve, prefactor):
        calls.append(curve.n)
        return rhs(curve, prefactor)

    monkeypatch.setattr(strip_mod, "muskat_rhs_periodic", counted)
    res = ck_solve(extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2), 0.02, PREF,
                   panels=8)
    assert res.iterations > 1
    assert len(calls) == 1 + 8 * res.iterations


def test_ck_contraction_geometric():
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    res = ck_solve(sc, 0.02, PREF, panels=8)
    hist = res.contraction_history
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1) if hist[i] > 0]
    assert all(r < 0.9 for r in ratios[2:])


def test_ck_solve_respects_norm_guard():
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    with pytest.raises(RegimeExitError):
        ck_solve(sc, 0.02, PREF, panels=8, norm_bound=1e-6)


def test_ck_backward_forward_round_trip():
    """Solving backward then forward returns the datum (well-posed both
    ways in the analytic class)."""
    c = eps_cos_curve(n=64, eps=0.01)
    sc = extend_to_strip(c, 0.2)
    back = ck_solve(sc, 0.01, -PREF, panels=8)
    fwd = ck_solve(back.curves[-1], 0.01, PREF, panels=8)
    rc = fwd.curves[-1].real_curve()
    assert np.max(np.abs(rc.z2 - c.z2)) < 1e-9
