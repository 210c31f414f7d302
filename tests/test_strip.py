"""Analytic-strip machinery: traces, norms, complexified kernel, Picard
continuation, generalized RT function."""

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants
from turnwave.curve import Curve, flat_curve, graph_curve, min_slope, periodic_grid
from turnwave.singular import muskat_rhs_periodic
from turnwave.strip import (CKResult, InsufficientAnalyticityError,
                            RegimeExitError, StripCurve, amplified_tail,
                            ck_solve, complex_G, complex_arc_chord,
                            decay_violation, estimate_G_bounds,
                            extend_to_strip,
                            generalized_rt, linear_shrink, strip_distance,
                            strip_norm, strip_norm_quadrature)

PREF = PhysicalConstants().darcy_factor / (4.0 * np.pi)


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


def test_strip_norm_parseval_vs_quadrature():
    sc = extend_to_strip(eps_cos_curve(eps=0.02, k=2), 0.15)
    a = strip_norm(sc)
    b = strip_norm_quadrature(sc)
    assert abs(a - b) < 1e-10 * max(a, b)


def test_strip_distance_identity_and_floor():
    sc = extend_to_strip(eps_cos_curve(), 0.2)
    assert strip_distance(sc, sc, r=sc.r) == 0.0


def test_amplified_tail_and_decay_violation_flat():
    sc = extend_to_strip(flat_curve(64), 0.5)
    assert amplified_tail(sc.coeffs, sc.r) == 0.0
    assert decay_violation(sc.coeffs, sc.r) == 0.0


def test_complex_G_reduces_to_real_kernel_on_axis():
    c = eps_cos_curve(n=128, eps=0.05, k=2)
    sc = extend_to_strip(c, 0.1)
    g = complex_G(sc, 0.0, PREF)
    v = muskat_rhs_periodic(c, PREF)
    assert np.max(np.abs(g[0].real - v[:, 0])) < 1e-12
    assert np.max(np.abs(g[1].real - v[:, 1])) < 1e-12
    assert np.max(np.abs(g.imag)) < 1e-12


def test_complex_G_schwarz_symmetry():
    """Real data: G at conjugate heights are conjugates."""
    sc = extend_to_strip(eps_cos_curve(n=128, eps=0.05, k=2), 0.1)
    gp = complex_G(sc, 0.07, PREF)
    gm = complex_G(sc, -0.07, PREF)
    assert np.max(np.abs(gp - np.conj(gm))) < 1e-11


def test_complex_G_flat_is_zero():
    sc = extend_to_strip(flat_curve(64), 0.3)
    assert np.max(np.abs(complex_G(sc, 0.1, PREF))) < 1e-13


def test_complex_arc_chord_flat():
    sc = extend_to_strip(flat_curve(64), 0.2)
    assert complex_arc_chord(sc) > 0.1  # bounded below, no pinching


def test_shrink_schedules():
    lin = linear_shrink(0.1, 1.0)
    assert lin(0.0) == pytest.approx(0.1)
    assert lin(1.0) == pytest.approx(0.05)


def test_ck_solve_matches_rk4_small_data():
    from turnwave.stepping import advance, muskat_state
    c = eps_cos_curve(n=64, eps=0.01)
    sc = extend_to_strip(c, 0.2)
    res = ck_solve(sc, 0.02, PREF, panels=8)
    assert res.converged
    st = advance(muskat_state(c), 0.02, 1e-4)
    rc = res.curves[-1].real_curve()
    assert np.max(np.abs(rc.z2 - st.curve.z2)) < 1e-8


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


def test_estimate_G_bounds_finite():
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.05), 0.1)
    sc2 = extend_to_strip(eps_cos_curve(n=64, eps=0.04, k=2), 0.1)
    gb = estimate_G_bounds([sc, sc2], 0.1, 0.05, PREF)
    assert np.isfinite(gb.c_size) and gb.c_size > 0
    assert np.isfinite(gb.c_lipschitz)
    assert np.isfinite(gb.c_modulus)


def test_generalized_rt_flat_oracle():
    """Flat interface, closed form: the PV integral vanishes, so
    RT = -2 pi / (1 + h_x^2) + Im(i h_t / (1 + i h_x)); on the axis
    contour (h = 0, h_t = 0) that is exactly -2 pi."""
    sc = extend_to_strip(flat_curve(128), 0.2)
    a = sc.alpha
    zero = np.zeros_like(a)
    rep0 = generalized_rt(sc, zero, zero, zero)
    assert np.max(np.abs(rep0.values + 2.0 * np.pi)) < 1e-11
    assert not rep0.passed  # negative sign: this arrangement is unstable

    h, hx = 0.05 * np.sin(a), 0.05 * np.cos(a)
    rep = generalized_rt(sc, h, hx, zero)
    target = -2.0 * np.pi / (1.0 + hx ** 2)
    assert np.max(np.abs(rep.values - target)) < 1e-9


def test_save_load_strip_curve(tmp_path):
    sc = extend_to_strip(eps_cos_curve(eps=0.03, k=2), 0.12, t=0.7)
    path = tmp_path / "strip.csv"
    sc.save_csv(path)
    back = StripCurve.load_csv(path)
    assert back.r == sc.r and back.t == sc.t
    assert np.max(np.abs(back.coeffs - sc.coeffs)) < 1e-15
