"""Analytic-strip machinery: traces, analyticity checks, norms, Picard
continuation on a shrinking strip."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnwave import strip as strip_mod
from turnwave.closures import PhysicalConstants
from turnwave.config import load_config
from turnwave.curve import Curve, derivative, periodic_grid
from turnwave.spectral import modes
from turnwave.strip import (InsufficientAnalyticityError, RegimeExitError,
                            amplified_tail, ck_solve, decay_violation,
                            extend_to_strip, strip_distance, strip_norm)
from turnwave.diagnostics import rt_report, sigma_muskat
from turnwave.scenarios import _rt_margin, run_scenario
from turnwave.stepping import RT_RUN_LENGTH

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


def test_trace_at_zero_is_real_curve():
    c = eps_cos_curve(eps=0.05, k=3)
    sc = extend_to_strip(c, 0.1)
    rc = sc.real_curve()
    assert np.max(np.abs(rc.z2 - c.z2)) < 1e-13
    assert np.max(np.abs(rc.z1 - c.z1)) < 1e-13


def strip_norm_quadrature(strip, j=4):
    """strip_norm by direct trapezoid quadrature of the traces on both
    boundaries a +- i r (reference for the coefficient formula)."""
    k = modes(strip.n)
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


def test_dense_output_exact_on_quadratics():
    """With G quadratic in t, the Simpson node values and the dense output
    at off-node times are the exact integral z0 + int_t0^t G; the dense
    output at a node reproduces that node's value."""
    from turnwave.strip import CKResult, StripCurve, _simpson_nodes
    t0, T, panels = 0.3, 0.8, 8
    local = np.linspace(0.0, T, panels + 1)
    z0 = extend_to_strip(eps_cos_curve(n=16, eps=0.1, k=2), 0.2).coeffs
    shape = np.abs(z0) + 1.0 + 0j     # conjugate-symmetric (real)
    g = (3 * local ** 2 - 2 * local + 1)[:, None, None] * shape
    nodes = _simpson_nodes(z0, g, T / panels)
    res = CKResult(times=t0 + local, g=g, curves=[
        StripCurve(coeffs=c, r=0.2, t=t0 + tt) for c, tt in zip(nodes, local)])

    def exact(s):
        return z0 + (s ** 3 - s ** 2 + s) * shape

    assert np.max(np.abs(nodes - exact(local[:, None, None]))) < 1e-14
    for tt, c in zip(res.times, res.curves):
        assert np.max(np.abs(res.at(tt).coeffs - c.coeffs)) < 1e-14
    for s in (0.01, 0.137, 0.45, 0.61, 0.799):
        assert np.max(np.abs(res.at(t0 + s).coeffs - exact(s))) < 1e-14
        assert res.at(t0 + s).t == t0 + s


def test_dense_output_of_a_solve_reproduces_its_nodes():
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2, t=0.1)
    res = ck_solve(sc, 0.02, PREF)
    for tt, c in zip(res.times, res.curves):
        assert np.max(np.abs(res.at(tt).coeffs - c.coeffs)) < 1e-15
        assert res.at(tt).r == pytest.approx(c.r, rel=1e-15)


def test_ck_solve_doubles_panels_until_time_error_meets_tolerance(monkeypatch):
    """A long horizon whose 4-interval time-error estimate exceeds the
    tolerance: capped at 4 intervals the solve fails; uncapped it doubles
    to a grid whose estimate meets the tolerance."""
    import turnwave.strip as strip_mod
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.05), 0.4)
    res = ck_solve(sc, 0.25, PREF)
    assert res.converged
    assert len(res.times) - 1 > strip_mod.START_PANELS
    assert res.time_error <= strip_mod.PICARD_TOL
    monkeypatch.setattr(strip_mod, "MAX_DOUBLINGS", 0)
    with pytest.raises(RegimeExitError, match="time error estimate"):
        ck_solve(sc, 0.25, PREF)


def test_shrink_schedules():
    """The strip half-width shrinks linearly from r0 at t = 0 to r0 / 2 at
    t = T, for forward and backward solves alike."""
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2, t=0.3)
    for prefactor in (PREF, -PREF):
        res = ck_solve(sc, 0.02, prefactor)
        rs = np.array([c.r for c in res.curves])
        assert rs[0] == 0.2
        assert rs[-1] == pytest.approx(0.1, rel=1e-15)
        assert np.all(np.diff(rs) < 0.0)
        assert res.times[0] == 0.3 and res.times[-1] == pytest.approx(0.32)


def test_ck_solve_matches_rk4_small_data():
    from turnwave.stepping import SimState, advance
    c = eps_cos_curve(n=64, eps=0.01)
    sc = extend_to_strip(c, 0.2)
    res = ck_solve(sc, 0.02, PREF)
    assert res.converged
    st, _ = advance(SimState(c), 0.02, 1e-4)
    rc = res.curves[-1].real_curve()
    assert np.max(np.abs(rc.z2 - st.curve.z2)) < 1e-8


def test_ck_solve_evaluates_initial_node_once(monkeypatch):
    """z^n(0) = z0 in every sweep, and the first sweep iterates on z0 at
    every node, so G runs once there and once per later sweep at each of
    the other nodes; the solve records that count.  The strip guard still
    checks every node of every sweep."""
    import turnwave.strip as strip_mod
    calls, guards = [], []
    rhs, violation = strip_mod.muskat_rhs_periodic, strip_mod.decay_violation

    def counted(curve, prefactor):
        calls.append(curve.n)
        return rhs(curve, prefactor)

    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    monkeypatch.setattr(strip_mod, "muskat_rhs_periodic", counted)
    monkeypatch.setattr(strip_mod, "decay_violation",
                        lambda coeffs, r: guards.append(r) or violation(coeffs, r))
    res = ck_solve(sc, 0.02, PREF)
    panels = len(res.times) - 1
    assert res.iterations > 1
    assert len(calls) == res.g_evaluations == 1 + panels * (res.iterations - 1)
    assert len(guards) == 1 + panels * res.iterations


def test_ck_contraction_geometric():
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    res = ck_solve(sc, 0.02, PREF)
    hist = res.contraction_history
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1) if hist[i] > 0]
    assert all(r < 0.9 for r in ratios[2:])


def test_ck_solve_respects_norm_guard(monkeypatch):
    """The admissible strip norm is NORM_GROWTH times the datum's.  A
    backward solve of a k = 4 mode on a thin strip grows the norm by about
    10%: it returns at the default NORM_GROWTH, and at NORM_GROWTH = 1.05
    an iterate past the datum leaves the admissible set."""
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01, k=4), 0.02)
    res = ck_solve(sc, 0.05, -PREF)
    growth = max(strip_norm(c.coeffs, c.r) for c in res.curves) / strip_norm(sc.coeffs, sc.r)
    assert 1.05 < growth < strip_mod.NORM_GROWTH
    monkeypatch.setattr(strip_mod, "NORM_GROWTH", 1.05)
    with pytest.raises(RegimeExitError, match="iterate norm exceeds"):
        ck_solve(sc, 0.05, -PREF)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("check", ["arc_chord", "strip_norm", "decay_violation"])
def test_ck_solve_exits_on_a_nonfinite_check(monkeypatch, check, value):
    """An admissibility check that reads inf or nan leaves the admissible
    set: each bound is written so that nan fails it too."""
    import turnwave.strip as strip_mod
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    monkeypatch.setattr(strip_mod, check, lambda *args, **kwargs: value)
    with pytest.raises(RegimeExitError):
        ck_solve(sc, 0.02, PREF)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("check", ["amplified_tail", "decay_violation"])
def test_extend_to_strip_rejects_a_nonfinite_check(monkeypatch, check, value):
    import turnwave.strip as strip_mod
    monkeypatch.setattr(strip_mod, check, lambda *args: value)
    with pytest.raises(InsufficientAnalyticityError):
        extend_to_strip(eps_cos_curve(), 0.3)


def test_ck_backward_forward_round_trip():
    """Solving backward then forward returns the datum (well-posed both
    ways in the analytic class)."""
    c = eps_cos_curve(n=64, eps=0.01)
    sc = extend_to_strip(c, 0.2)
    back = ck_solve(sc, 0.01, -PREF)
    fwd = ck_solve(back.curves[-1], 0.01, PREF)
    rc = fwd.curves[-1].real_curve()
    assert np.max(np.abs(rc.z2 - c.z2)) < 1e-9


def test_strip_weights_are_computed_once_per_time_grid():
    """The weights of strip_norm are computed once per half-width of a time
    grid, not on every norm and distance of every sweep, and give the
    bits of the uncached expression."""
    sc = extend_to_strip(eps_cos_curve(n=64, eps=0.01), 0.2)
    k = modes(sc.n).astype(float)
    for r in (0.0, 0.1, 0.2):
        weight = 2.0 * np.cosh(2.0 * k * r) * (1.0 + k ** 8)
        norm = float(np.sqrt(2.0 * np.pi * np.sum(weight[None, :] * np.abs(sc.coeffs) ** 2)))
        assert strip_norm(sc.coeffs, r) == norm
    strip_mod._strip_weight.cache_clear()
    res = ck_solve(sc, 0.02, PREF)
    info = strip_mod._strip_weight.cache_info()
    assert res.iterations > 2
    assert info.misses == len(res.times)   # z0.r is the r of the first node
    assert info.hits >= res.iterations * len(res.times)


def test_breakdown_real_curves_share_one_grid(monkeypatch, tmp_path):
    """The real curves of a bundled muskat-breakdown run, over fifty,
    take the grid of their strip solve's first real curve: its two solves
    make at most two new grids between them, where each real curve checked
    and copied its own.  (Over a hundred when each real curve made its
    own grid.)"""
    grids, real_curve = [], strip_mod._real_curve

    def recorded(coeffs, grid=None):
        curve = real_curve(coeffs, grid)
        grids.append(curve.alpha)
        return curve

    monkeypatch.setattr(strip_mod, "_real_curve", recorded)
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "muskat-breakdown.cfg"))
    cfg.output_dir = str(tmp_path / "run")
    assert run_scenario(cfg).exit_code == 0
    assert len(grids) > 50
    assert len({id(g) for g in grids}) <= 2


@settings(max_examples=300, deadline=None)
@given(sigma=st.lists(st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-1e300, 1e300)),
                      min_size=RT_RUN_LENGTH, max_size=24))
@example(sigma=[-1.0] * 8)                                       # negative throughout
@example(sigma=[-1.0, -2.0, 1.0, 0.0, 3.0, 1.0, 0.0, -5e-14])    # a run through the seam
@example(sigma=[-1.0, -1.0, 0.0, -1.0, -1.0, 0.0, 2.0, 1.0])     # runs cut by sigma = 0
def test_rt_margin_is_negative_exactly_on_a_long_negative_run(sigma):
    """_rt_margin(sigma) < 0 exactly when rt_report's longest periodic
    negative run reaches RT_RUN_LENGTH."""
    sigma = np.array(sigma)
    run = rt_report(periodic_grid(len(sigma)), sigma, True).longest_negative_run
    assert (_rt_margin(sigma) < 0.0) == (run >= RT_RUN_LENGTH)


def test_rt_sign_change_is_the_root_of_the_margin(monkeypatch, tmp_path):
    """On the bundled breakdown continuation, Brent's method on _rt_margin
    locates the RT sign change in at most 10 probes of the dense output,
    strictly between the bracketing nodes, and the curve and report
    returned are those of the dense output at the located time, whose
    longest negative run reaches RT_RUN_LENGTH."""
    from turnwave import scenarios

    calls = []
    locate = scenarios._locate_rt_sign_change
    monkeypatch.setattr(scenarios, "_locate_rt_sign_change",
                        lambda *args: calls.append(args) or locate(*args))
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "muskat-breakdown.cfg"))
    cfg.output_dir = str(tmp_path / "run")
    assert run_scenario(cfg).exit_code == 0
    (res, nodes, j, consts), = calls
    probes, brent = [], scenarios._brent
    monkeypatch.setattr(scenarios, "_brent",
                        lambda f, *args: brent(lambda t: probes.append(t) or f(t), *args))
    t, rc, sig = locate(res, nodes, j, consts)
    assert 0 < len(probes) <= 10 and t in probes
    assert res.times[j - 1] < t < res.times[j]
    assert sig.longest_negative_run >= RT_RUN_LENGTH
    full = res.at(t).real_curve()
    assert rc.z1.tobytes() == full.z1.tobytes() and rc.z2.tobytes() == full.z2.tobytes()
    assert sig.sigma.tobytes() == sigma_muskat(full, consts, derivative(full, 1)).sigma.tobytes()
