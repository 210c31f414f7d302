"""RT diagnostics, weight functions, discrete H4 norm, energy distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnwave.closures import PhysicalConstants
from turnwave.curve import Curve, derivative, graph_curve, periodic_grid
from turnwave.diagnostics import (WeightParams, energy_distance, rt_report,
                                  sigma10, sigma10_checklist, sigma_muskat,
                                  verify_weighted_rt, weight_h, weight_h_dt,
                                  weight_hbar, weight_hbar_dt)
from turnwave.initial_data import TurningParams, turning_candidate_periodic
from turnwave.spectral import discrete_h4_norm
from turnwave.strip import extend_to_strip

from conftest import flat_curve

WP = WeightParams(A=100.0, tau=0.005)


def test_sigma_muskat_flat_positive():
    c = flat_curve(64)
    rep = sigma_muskat(c, PhysicalConstants(), derivative(c, 1))
    assert rep.min_sigma == pytest.approx(1.0)
    assert rep.negative_intervals == []


def test_sigma_muskat_negative_interval_extraction():
    a = periodic_grid(128)
    c = Curve("periodic", a, a - 1.2 * np.sin(a), np.zeros(128))
    rep = sigma_muskat(c, PhysicalConstants(), derivative(c, 1))
    assert rep.min_sigma < 0
    assert len(rep.negative_intervals) == 1
    lo, hi = rep.negative_intervals[0]
    # d1 = 1 - 1.2 cos a < 0 around a = 0: the interval wraps the origin
    assert lo > hi  # wraparound representation
    assert np.cos(lo) > 1 / 1.2 - 0.1 and np.cos(hi) > 1 / 1.2 - 0.1


@pytest.mark.parametrize("negative, periodic, intervals, longest", [
    ([], True, [], 0),
    (range(8), True, [(0.0, 7.0)], 8),
    ([0, 1, 4, 6, 7], True, [(4.0, 4.0), (6.0, 1.0)], 4),
    ([0, 1, 4, 6, 7], False, [(0.0, 1.0), (4.0, 4.0), (6.0, 7.0)], 2),
], ids=["none", "all", "wraps-seam", "open-ends"])
def test_rt_report_negative_runs(negative, periodic, intervals, longest):
    alpha = np.arange(8.0)
    sigma = np.ones(8)
    sigma[list(negative)] = -0.5
    rep = rt_report(alpha, sigma, periodic)
    assert rep.negative_intervals == intervals
    assert rep.longest_negative_run == longest
    assert rep.min_sigma == sigma.min()


def test_rt_report_stack_gives_each_member_its_report():
    """A (k, N) stack of sigma rows reports, per member, the intervals,
    minimum and longest run that the member's row gets alone."""
    alpha = np.arange(8.0)
    rows = np.ones((5, 8))
    for row, negative in zip(rows, ([], range(8), [0, 1, 4, 6, 7], [7], [0, 7])):
        row[list(negative)] = -0.5
    rows[2, 4] = -2.0
    for periodic in (True, False):
        stack = rt_report(alpha, rows, periodic)
        for i, row in enumerate(rows):
            alone = rt_report(alpha, row, periodic)
            assert stack.negative_intervals[i] == alone.negative_intervals
            assert stack.min_sigma[i] == alone.min_sigma
            assert stack.longest_negative_run[i] == alone.longest_negative_run
        assert list(stack.longest_negative_run) == ([0, 8, 4, 1, 2] if periodic
                                                    else [0, 8, 2, 1, 1])


def test_sigma10_flat_value():
    vals = sigma10(flat_curve(64))
    assert np.max(np.abs(vals + 2.0 * np.pi)) < 1e-13


def test_sigma10_vanishes_at_vertical_tangent():
    c = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=256)
    vals = sigma10(c)
    assert abs(vals[0]) < 1e-12       # d1(0) = 0
    assert np.all(vals[1:] <= 1e-12)  # d1 >= 0 elsewhere


def test_sobolev_norm_single_mode():
    a = periodic_grid(128)
    f = np.cos(3 * a)
    # |f|_{H^4}^2 = pi (1 + 3^8) for the cosine normalization used
    expect = np.sqrt(np.pi * (1 + 3 ** 8))
    assert discrete_h4_norm(f) == pytest.approx(expect, rel=1e-12)


def test_weight_h_window_and_zero_at_final_time():
    x = np.linspace(-np.pi, np.pi, 201)
    assert weight_h(np.array([0.0]), WP.tau, WP)[0] == 0.0
    assert np.all(weight_h(x, WP.tau, WP) >= 0.0)
    assert np.all(weight_h(x, WP.tau ** 2, WP) >= 0.0)
    with pytest.raises(ValueError):
        weight_h(x, 2 * WP.tau, WP)
    with pytest.raises(ValueError):
        weight_h(x, 0.0, WP)


def test_weight_hbar_window_and_nonnegativity():
    x = np.linspace(-np.pi, np.pi, 201)
    for t in (0.0, 0.5 * WP.tau ** 2, WP.tau ** 2):
        assert np.all(weight_hbar(x, t, WP) >= 0.0)
    with pytest.raises(ValueError):
        weight_hbar(x, WP.tau, WP)


def test_weight_nonnegativity_needs_large_A():
    """1/A >= tau - tau^2 is required for h >= 0 on the window; a small A
    with a large tau produces a negative region (and a warning at
    construction)."""
    with pytest.warns(UserWarning):
        bad = WeightParams(A=100.0, tau=0.05)
    x = np.array([np.pi])
    assert weight_h(x, bad.tau ** 2, bad)[0] < 0.0


def test_weight_derivatives_by_finite_differences():
    x = np.linspace(-2.0, 2.0, 41)
    t0, dt = 0.5 * (WP.tau ** 2 + WP.tau), 1e-9
    dh_dt = (weight_h(x, t0 + dt, WP) - weight_h(x, t0 - dt, WP)) / (2 * dt)
    assert np.max(np.abs(dh_dt - weight_h_dt(x, t0, WP))) < 1e-5
    tb = 0.5 * WP.tau ** 2
    db_dt = (weight_hbar(x, tb + dt, WP) - weight_hbar(x, tb - dt, WP)) / (2 * dt)
    assert np.max(np.abs(db_dt - weight_hbar_dt(x, tb, WP))) < 1e-5


def test_verify_weighted_rt_synthetic_pass():
    """sigma10 large and positive on both windows makes both inequalities
    hold with margin."""
    x = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    t = np.linspace(0.0, WP.tau, 21)
    sig = np.full((t.size, x.size), 50.0)
    rep = verify_weighted_rt(sig, x, t, WP)
    assert rep.hi_pass and rep.hbari_pass
    assert rep.hi_margin > 0 and rep.hbari_margin >= rep.hbari_bound


def test_verify_weighted_rt_requires_window_coverage():
    x = np.linspace(-np.pi, np.pi, 16)
    with pytest.raises(ValueError):
        verify_weighted_rt(np.zeros((1, 16)), x, np.array([10.0 * WP.tau]), WP)


def test_sigma10_checklist_on_candidate_trajectory():
    from turnwave.stepping import SimState, run
    c = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128)
    traj, _ = run(SimState(c), 1e-4, 2e-5)
    out = sigma10_checklist([s[1] for s in traj.snapshots], traj.times)
    assert out["p2"]["pass"] and out["p4"]["pass"] and out["p5"]["pass"]
    assert out["p6"]["value"] < 0.0
    assert out["p7"]["value"] > 0.0


def test_energy_distance_identity_and_symmetry():
    sc = extend_to_strip(graph_curve(0.05 * np.cos(periodic_grid(64))), 0.1)
    sc2 = extend_to_strip(graph_curve(0.04 * np.cos(periodic_grid(64))), 0.1)
    assert energy_distance(sc, sc) == 0.0
    assert energy_distance(sc, sc2) == pytest.approx(energy_distance(sc2, sc))
    assert energy_distance(sc, sc2) > 0


def test_energy_distance_requires_same_geometry():
    sc = extend_to_strip(graph_curve(0.05 * np.cos(periodic_grid(64))), 0.1)
    other = extend_to_strip(graph_curve(0.05 * np.cos(periodic_grid(128))), 0.1)
    with pytest.raises(ValueError):
        energy_distance(sc, other)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=1, max_value=4))
def test_sigma10_reality_and_periodic_mean(eps, k):
    c = graph_curve(eps * np.cos(k * periodic_grid(128)))
    vals = sigma10(c)
    assert np.all(np.isfinite(vals))
    assert np.all(vals < 0)  # graph: d1 > 0 everywhere
