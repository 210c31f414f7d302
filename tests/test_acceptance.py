"""End-to-end acceptance suite.

Each test exercises one headline property of the package, records a
PASS/FAIL scoreboard line (printed in the terminal summary), and asserts
the stated tolerance.  Heavier tests reuse the scenario pipelines with
reduced resolutions chosen so each test stays inside its runtime budget.
Budgets are checked against CPU time so they are insensitive to external
load on shared machines.
"""

import os
import time

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants
from turnwave.config import ScenarioConfig
from turnwave.curve import graph_curve, load_csv
from turnwave.diagnostics import energy_distance
from turnwave.initial_data import (TurningParams, dv1_at_zero_full,
                                   dv1_at_zero_reduced)
from turnwave.scenarios import (ck_compare, muskat_breakdown, muskat_linear,
                                muskat_turning, render_trajectory, rt_verify,
                                waterwave_linear, waterwave_turning)
from turnwave.singular import br_block, br_velocity
from turnwave.spectral import hilbert_transform
from turnwave.stepping import SimState, run
from turnwave.strip import extend_to_strip

from conftest import flat_curve, record


def _cfg(tmp_path, scenario, name, **overrides):
    cfg = ScenarioConfig(scenario=scenario)
    cfg.output_dir = str(tmp_path / name)
    for dotted, value in overrides.items():
        section, _, field = dotted.partition("__")
        target = getattr(cfg, section)
        if not hasattr(target, field):
            raise AttributeError(f"no config key {section}.{field}")
        setattr(target, field, value)
    return cfg


def test_criterion_01_flat_quadrature_oracle():
    """Velocity induced on a flat interface matches the Hilbert-transform
    closed form to 1e-10 for wavenumbers 1..8 at N = 256."""
    t0 = time.process_time()
    curve = flat_curve(256)
    worst = 0.0
    for k in range(1, 9):
        omega = np.sin(k * curve.alpha)
        v = br_velocity(br_block(curve), omega)
        err = max(np.max(np.abs(v[:, 0])),
                  np.max(np.abs(v[:, 1] - 0.5 * hilbert_transform(omega))))
        worst = max(worst, err)
    elapsed = time.process_time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    record("criterion 1: flat-interface quadrature oracle (k = 1..8)", ok,
           f"max error {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_muskat_modal_decay(tmp_path):
    """Small-amplitude Muskat modes decay at rate darcy_factor*k/2 to
    within 0.5% for k in {1, 2, 4}."""
    t0 = time.process_time()
    worst = 0.0
    for k in (1, 2, 4):
        cfg = _cfg(tmp_path, "muskat-linear", f"decay_k{k}",
                   grid__n=128, wave__k=k, numerics__dt=2e-3,
                   numerics__t_end=0.4, numerics__snapshot_cadence=50)
        res = muskat_linear(cfg)
        worst = max(worst, res.report["relative_error"])
        assert res.exit_code == 0
    elapsed = time.process_time() - t0
    ok = worst < 5e-3 and elapsed < 30.0
    record("criterion 2: linear Muskat modal decay rate (k = 1, 2, 4)", ok,
           f"max relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 5e-3
    assert elapsed < 30.0


def test_criterion_03_waterwave_dispersion(tmp_path):
    """Standing-wave frequency matches sqrt(g k) to within 1% for
    k in {1, 2, 4}."""
    t0 = time.process_time()
    worst = 0.0
    for k in (1, 2, 4):
        cfg = _cfg(tmp_path, "waterwave-linear", f"disp_k{k}",
                   grid__n=64, wave__k=k, numerics__dt=5e-3,
                   numerics__t_end=1.8, numerics__snapshot_cadence=100)
        res = waterwave_linear(cfg)
        worst = max(worst, res.report["relative_error"])
        assert res.exit_code == 0
    elapsed = time.process_time() - t0
    ok = worst < 1e-2 and elapsed < 60.0
    record("criterion 3: water-wave dispersion sqrt(g k) (k = 1, 2, 4)", ok,
           f"max relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-2
    assert elapsed < 60.0


def test_criterion_04_reduced_vs_full_identity():
    """The boundary-term-free expression for the velocity slope at the
    vertical tangent agrees with the direct quadrature to 1e-6 relative
    on 20 randomized admissible candidates."""
    t0 = time.process_time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        params = TurningParams(
            beta1=rng.uniform(0.6, 1.4),
            beta2=rng.uniform(2.2, 3.2),
            beta3=rng.uniform(4.2, 5.2),
            b=rng.uniform(1.0, 4.0),
            cbar=-rng.uniform(0.05, 0.4))
        red = dv1_at_zero_reduced(params)
        full = dv1_at_zero_full(params)
        worst = max(worst, abs(red - full) / max(abs(full), 1e-30))
    elapsed = time.process_time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    record("criterion 4: integration-by-parts identity on 20 random curves",
           ok, f"max relative discrepancy {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_05_turning_certificate_and_event(tmp_path):
    """The open turning candidate passes the certificate, the tilted
    unfolding reaches a Turning event at finite t*, and t* is
    mesh-converged (N = 513 vs 1025 within 1%)."""
    t0 = time.process_time()
    t_stars = {}
    cert_ok = True
    for n in (513, 1025):
        cfg = _cfg(tmp_path, "muskat-turning", f"turn_n{n}",
                   grid__n=n, grid__L=15.0,
                   turning__beta1=1.0, turning__tilt=0.05,
                   numerics__dt=1e-3, numerics__t_end=0.5,
                   numerics__snapshot_cadence=50)
        res = muskat_turning(cfg)
        assert res.exit_code == 0, res.message
        cert_ok &= res.report["certificate"]["passed"]
        t_stars[n] = res.report["turning_time"]
    rel = abs(t_stars[513] - t_stars[1025]) / t_stars[1025]
    elapsed = time.process_time() - t0
    ok = cert_ok and rel < 1e-2 and elapsed < 180.0
    record("criterion 5: turning certificate, Turning event, mesh-converged t*",
           ok, f"t* = {t_stars[1025]:.6g}, mesh shift {rel:.2e}, {elapsed:.0f}s")
    assert cert_ok
    assert rel < 1e-2
    assert elapsed < 180.0


@pytest.mark.slow
def test_criterion_06_rt_breakdown_order(tmp_path):
    """In the breakdown scenario the stability function turns negative on
    at least 3 consecutive nodes, strictly after the Turning event, via
    strip continuation.  The run directory renders, and its last snapshot
    (the continuation curve at the sign change) loads back."""
    t0 = time.process_time()
    cfg = _cfg(tmp_path, "muskat-breakdown", "breakdown",
               grid__n=512, turning__beta1=1.5, turning__b=3.0,
               wave__delta=0.01, numerics__dt=2e-4, numerics__t_end=0.05,
               numerics__snapshot_cadence=25,
               strip__r0=0.04, strip__M=512, strip__T=0.02)
    res = muskat_breakdown(cfg)
    elapsed = time.process_time() - t0
    report = res.report
    order = report.get("event_order", [])
    ordered = ("Turning" in order and "RTSignChange" in order
               and order.index("Turning") < order.index("RTSignChange")
               and report["rt_sign_change_time"] > report["turning_time"])
    ok = (res.exit_code == 0 and ordered
          and report["rt_negative_nodes"] >= 3 and elapsed < 180.0)
    record("criterion 6: RT sign change after turning (>= 3 nodes)", ok,
           f"turning {report.get('turning_time', float('nan')):.4g}, "
           f"sign change {report.get('rt_sign_change_time', float('nan')):.4g}, "
           f"{report.get('rt_negative_nodes', 0)} nodes, {elapsed:.0f}s")
    assert res.exit_code == 0, res.message
    assert ordered
    assert report["rt_negative_nodes"] >= 3
    assert elapsed < 180.0
    assert any(p.endswith("interface.svg") for p in render_trajectory(cfg.output_dir))
    snaps = sorted(f for f in os.listdir(cfg.output_dir) if f.startswith("snap_"))
    _, t_last, _ = load_csv(os.path.join(cfg.output_dir, snaps[-1]))
    assert t_last == report["rt_sign_change_time"]


@pytest.mark.slow
def test_criterion_07_waterwave_turning(tmp_path):
    """Water-wave run from the backward-constructed datum: the graph slope
    exceeds 1e3 before the Turning event and grows under the flow to at
    least ten times the datum's, the interface leaves the graph class at
    the Turning event, and the forward-backward round trip closes to 1e-4.
    Only every 50th step (and the last) is written as a snapshot."""
    t0 = time.process_time()
    cfg = _cfg(tmp_path, "waterwave-turning", "ww_turn",
               grid__n=256, turning__beta1=1.5, turning__b=3.0,
               wave__delta=1e-3, numerics__dt=1e-5, numerics__t_end=5e-3,
               numerics__snapshot_cadence=50)
    res = waterwave_turning(cfg)
    elapsed = time.process_time() - t0
    r = res.report
    ok = (res.exit_code == 0 and r["graph_blowup_time"] is not None
          and r["turning_time"] is not None
          and r["graph_blowup_time"] <= r["turning_time"]
          and r["as_graph_fails_at_turning"]
          and r["round_trip_error"] < 1e-4 and elapsed < 180.0)
    record("criterion 7: water-wave slope blow-up and loss of graph form", ok,
           f"round trip {r['round_trip_error']:.2e}, "
           f"blow-up {r['graph_blowup_time']} <= turning {r['turning_time']}, "
           f"{elapsed:.0f}s")
    assert res.exit_code == 0, res.message
    assert r["graph_blowup_time"] <= r["turning_time"]
    assert r["as_graph_fails_at_turning"]
    assert r["round_trip_error"] < 1e-4
    assert elapsed < 180.0
    t_steps = np.genfromtxt(os.path.join(cfg.output_dir, "diagnostics.csv"),
                            delimiter=",", names=True)["t"]
    kept = sorted(set(range(0, t_steps.size, 50)) | {t_steps.size - 1})
    snaps = sorted(f for f in os.listdir(cfg.output_dir) if f.startswith("snap_"))
    assert snaps == [f"snap_{i:05d}.csv" for i in range(len(kept))]
    assert [load_csv(os.path.join(cfg.output_dir, f))[1] for f in snaps] == list(t_steps[kept])
    assert r["max_finite_slope_sup"] >= 10.0 * r["datum_slope_sup"]


def test_criterion_08_ck_cross_validation(tmp_path):
    """The analytic-strip successive-approximation solver matches the
    real-space integrator to 1e-6 up to T = 0.05, with contraction
    ratio < 0.9 after iteration 3."""
    t0 = time.process_time()
    cfg = _cfg(tmp_path, "ck-compare", "ck",
               grid__n=128, strip__r0=0.2, strip__T=0.05, numerics__dt=1e-4)
    res = ck_compare(cfg)
    elapsed = time.process_time() - t0
    r = res.report
    ok = (res.exit_code == 0 and r["max_node_distance"] < 1e-6
          and r["max_late_ratio"] < 0.9 and elapsed < 120.0)
    record("criterion 8: strip solver vs real-space integrator", ok,
           f"max node distance {r['max_node_distance']:.2e}, "
           f"late contraction ratio {r['max_late_ratio']:.3g}, {elapsed:.0f}s")
    assert res.exit_code == 0, res.message
    assert r["max_node_distance"] < 1e-6
    assert r["max_late_ratio"] < 0.9
    assert elapsed < 120.0


def test_criterion_09_weighted_verifier_sanity(tmp_path):
    """Weight sanity and the pointwise stability-function checklist:
    h(0, tau) = 0 exactly, weights nonnegative on their windows, the
    exact/symmetry-forced checklist items pass, and the signed items have
    the claimed signs (concave in x at the origin, increasing in t)."""
    t0 = time.process_time()
    cfg = _cfg(tmp_path, "rt-verify", "rt",
               grid__n=256, turning__beta1=1.5, turning__b=3.0,
               weights__A=100.0, weights__tau=0.005)
    res = rt_verify(cfg)
    elapsed = time.process_time() - t0
    r = res.report
    cl = r["sigma10_checklist"]
    ok = (res.exit_code == 0
          and r["h_at_origin_final_time"] == 0.0
          and r["weights_nonnegative"]
          and cl["p2"]["pass"] and cl["p4"]["pass"] and cl["p5"]["pass"]
          and cl["p6"]["value"] < 0.0 and cl["p7"]["value"] > 0.0
          and elapsed < 60.0)
    record("criterion 9: weighted verifier sanity and sign checklist", ok,
           f"h(0,tau) = {r['h_at_origin_final_time']}, "
           f"d2x = {cl['p6']['value']:.3g} < 0, "
           f"dt = {cl['p7']['value']:.3g} > 0, {elapsed:.0f}s")
    assert res.exit_code == 0, res.message
    assert r["h_at_origin_final_time"] == 0.0
    assert r["weights_nonnegative"]
    assert cl["p6"]["value"] < 0.0 and cl["p7"]["value"] > 0.0
    assert elapsed < 60.0


def test_criterion_10_conservation_and_stability(tmp_path):
    """Stable Muskat graph runs conserve the mean to 1e-8 per unit time and
    are L-infinity nonincreasing; energy_distance(x, x) = 0; and the decay
    of the strip distance between a perturbed and an unperturbed stable run
    obeys d/dt distance >= -C lambda^2 for a constant C fitted on the early
    part of the run."""
    t0 = time.process_time()
    consts = PhysicalConstants()
    n, dt, t_end, r = 128, 2e-3, 0.3, 0.15
    alpha = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    base_f = 0.05 * np.cos(alpha) + 0.02 * np.sin(2 * alpha)

    def stable_run(f0):
        """Every 5th step of a run, the initial state included."""
        traj, _ = run(SimState(graph_curve(f0), consts=consts), t_end, dt)
        return traj.snapshots[::5]

    base = stable_run(base_f)
    means = np.array([np.mean(c.z2) for _, c, _ in base])
    sups = np.array([np.max(np.abs(c.z2)) for _, c, _ in base])
    mean_drift = np.max(np.abs(means - means[0])) / t_end
    linf_ok = bool(np.all(np.diff(sups) <= 1e-12))

    strips = [extend_to_strip(c, r, t=t) for t, c, _ in base]
    self_dist = energy_distance(strips[0], strips[0])

    lam = 1e-3
    pert = stable_run(base_f + lam * np.cos(3 * alpha))
    dists = np.array([
        energy_distance(extend_to_strip(c, r, t=t), s0)
        for (t, c, _), s0 in zip(pert, strips)])
    times = np.array([t for t, _, _ in pert])[:len(dists)]
    rates = np.diff(dists) / np.diff(times)
    half = len(rates) // 2
    C = max(0.0, np.max(-rates[:half])) / lam ** 2
    bound_ok = bool(np.all(rates >= -1.001 * C * lam ** 2))

    elapsed = time.process_time() - t0
    ok = (mean_drift < 1e-8 and linf_ok and self_dist == 0.0
          and bound_ok and elapsed < 120.0)
    record("criterion 10: conservation, monotonicity, distance decay bound",
           ok, f"mean drift {mean_drift:.2e}/unit time, "
           f"self distance {self_dist}, C = {C:.3g}, {elapsed:.0f}s")
    assert mean_drift < 1e-8
    assert linf_ok
    assert self_dist == 0.0
    assert bound_ok
    assert elapsed < 120.0
