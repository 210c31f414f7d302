"""Turning candidates and sign certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnwave import initial_data
from turnwave.closures import PhysicalConstants
from turnwave.curve import derivative, min_slope, resample
from turnwave.initial_data import (DeltaTooLargeError, TurningParams,
                                   _VerticalProfile, dv1_at_zero_full,
                                   dv1_at_zero_periodic, dv1_at_zero_reduced,
                                   dz1_profile, open_certificate, perturb_h4,
                                   turning_candidate_open,
                                   turning_candidate_periodic,
                                   waterwave_datum)
from turnwave import singular
from turnwave.singular import _conformal
from turnwave.spectral import discrete_h4_norm

from test_singular import conformal_kernel, dense_product

DEFAULT = TurningParams()


def test_params_validation():
    with pytest.raises(ValueError):
        TurningParams(beta1=3.0, beta2=1.0)
    with pytest.raises(ValueError):
        TurningParams(b=-1.0)
    with pytest.raises(ValueError):
        TurningParams(cbar=0.1)


def test_open_candidate_geometry():
    c = turning_candidate_open(DEFAULT, n=513, L=15.0)
    d1 = dz1_profile(c.alpha)
    i0 = np.argmin(np.abs(c.alpha))
    assert abs(d1[i0]) < 1e-14                       # vertical tangent at 0
    assert np.all(d1[np.abs(c.alpha) > 1e-9] > 0)    # strict graph elsewhere
    assert _VerticalProfile(DEFAULT).deriv(0.0) > 0  # rising through it
    # odd symmetry and flat tails at the configured level
    assert np.max(np.abs(c.z2 + c.z2[::-1])) < 1e-12
    assert abs(c.z2[-1] - DEFAULT.cbar) < 1e-12


def test_open_candidate_tilt_unfolds():
    c = turning_candidate_open(DEFAULT, n=513, L=15.0, tilt=0.05)
    rep = min_slope(c)
    assert rep.min_slope == pytest.approx(0.05, rel=1e-6)  # strict graph


def test_periodic_candidate_geometry():
    params = TurningParams(beta1=1.5, b=3.0)
    c = turning_candidate_periodic(params, n=256)
    d1, d2 = derivative(c, 1)
    assert abs(d1[0]) < 1e-12
    assert np.all(d1[1:] > 0)
    assert d2[0] > 0
    # z2 changes sign exactly at beta1 on (0, pi)
    inside = (c.alpha > 1e-9) & (c.alpha < params.beta1 - 1e-9)
    beyond = (c.alpha > params.beta1 + 1e-9) & (c.alpha < np.pi - 1e-9)
    assert np.all(c.z2[inside] > 0) and np.all(c.z2[beyond] < 0)


def test_reduced_vs_full_integration_by_parts():
    """The two quadratures of d_alpha v1(0) agree (they differ by an exact
    integration by parts)."""
    for b in (1.0, 2.5, 4.0):
        params = TurningParams(b=b)
        red, full = dv1_at_zero_reduced(params), dv1_at_zero_full(params)
        assert abs(red - full) <= 1e-6 * max(abs(red), abs(full))


def test_certificate_passes_default_open_candidate():
    cert = open_certificate(DEFAULT, n=513, L=15.0)
    assert cert.passed
    assert cert.dv1_at_zero < 0 and cert.dz2_at_zero > 0


def test_certificate_periodic_candidate_sign_depends_on_beta1():
    """Converged velocity gradient: the wide-bump candidate turns
    (dv1 < 0), the narrow one does not -- resolution artifacts at the
    vertical-tangent point must not flip these signs."""
    pref = PhysicalConstants().periodic_prefactor
    wide = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=512)
    assert dv1_at_zero_periodic(wide, pref) < -0.1
    narrow = turning_candidate_periodic(TurningParams(beta1=0.6, b=3.0), n=512)
    assert dv1_at_zero_periodic(narrow, pref) > 0.0


def test_dv1_periodic_resolution_stable(monkeypatch):
    pref = PhysicalConstants().periodic_prefactor
    c = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=256)
    assert initial_data.DV1_NODES == 2048
    v1 = dv1_at_zero_periodic(c, pref)
    monkeypatch.setattr(initial_data, "DV1_NODES", 4096)
    v2 = dv1_at_zero_periodic(c, pref)
    assert abs(v1 - v2) < 5e-3 * abs(v2)


def test_dv1_periodic_matches_stencil_of_dense_velocity(monkeypatch):
    """dv1_at_zero_periodic evaluates the kernel on the rows of nodes -2..2
    only, one 5 x N block; it is within 1e-12 relative of the same stencil
    applied to v1 from the dense N x N kernel on the resampled curve."""
    pref = PhysicalConstants().periodic_prefactor
    cand = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=512)
    c = resample(cand, 2048)
    h = 2.0 * np.pi / c.n
    ref, _ = dense_product(conformal_kernel(*_conformal(c)), np.full(c.n, h),
                           derivative(c, 1), derivative(c, 2), 2.0)
    v1 = pref * ref[0]
    dv1 = (-v1[2] + 8.0 * v1[1] - 8.0 * v1[-1] + v1[-2]) / (12.0 * h)
    blocks, pair = [], singular._conformal_pair
    monkeypatch.setattr(singular, "_conformal_pair",
                        lambda *args: blocks.append(args[-1].shape) or pair(*args))
    assert abs(dv1_at_zero_periodic(cand, pref) - dv1) <= 1e-12 * abs(dv1)
    assert blocks == [(5, 2048)]


def test_perturb_h4_exact_size_and_reproducible():
    c = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128)
    p1 = perturb_h4(c, 1e-3, seed=7)
    p2 = perturb_h4(c, 1e-3, seed=7)
    assert np.array_equal(p1.z2, p2.z2)
    size = np.sqrt(discrete_h4_norm(p1.z1 - c.z1) ** 2
                   + discrete_h4_norm(p1.z2 - c.z2) ** 2)
    assert size == pytest.approx(1e-3, rel=1e-10)


def test_waterwave_datum_is_graph_and_round_trips():
    star = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128)
    datum, omega0 = waterwave_datum(star, 1e-3, dt=1e-4)
    assert min_slope(datum).min_slope > 0
    from turnwave.stepping import SimState, advance
    back, _ = advance(SimState(datum, omega0), 1e-3, 1e-4)
    assert np.max(np.abs(back.curve.z2 - star.z2)) < 1e-6


def test_waterwave_datum_rejects_bad_delta():
    star = turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=128)
    with pytest.raises(ValueError):
        waterwave_datum(star, -1.0)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=-1.0, max_value=-0.05))
@example(2.0, -0.63671875)
def test_open_candidate_certificate_quadratures_agree(b, cbar):
    params = TurningParams(b=b, cbar=cbar)
    red, full = dv1_at_zero_reduced(params), dv1_at_zero_full(params)
    assert abs(red - full) <= 1e-6 * max(abs(red), abs(full), 1e-12)


def dv1_reference(params, dps=40):
    """Both certificate integrals of the open candidate to `dps` digits
    (mpmath), on the profile as built: the blend polynomial keeps its
    double-precision coefficients, so only the quadrature is compared."""
    mpmath = pytest.importorskip("mpmath")
    blend = [float(c) for c in _VerticalProfile(params).poly.coef[::-1]]
    with mpmath.workdps(dps):
        b1, b2, b3, b, cbar = map(mpmath.mpf, (params.beta1, params.beta2,
                                              params.beta3, params.b, params.cbar))
        blend = [mpmath.mpf(c) for c in blend]
        dblend = [c * (len(blend) - 1 - i) for i, c in enumerate(blend[:-1])]

        def z2(x):
            if x <= b2:
                return b * x * (b1 ** 2 - x ** 2) / (1 + x ** 4)
            return mpmath.polyval(blend, x) if x < b3 else cbar

        def dz2(x):
            if x <= b2:
                return b * ((b1 ** 2 - 3 * x ** 2) * (1 + x ** 4)
                            - 4 * x ** 4 * (b1 ** 2 - x ** 2)) / (1 + x ** 4) ** 2
            return mpmath.polyval(dblend, x) if x < b3 else 0

        def z1(x):
            """z1 and its first two derivatives."""
            return (x ** 3 / (1 + x ** 2), x ** 2 * (x ** 2 + 3) / (1 + x ** 2) ** 2,
                    2 * x * (3 - x ** 2) / (1 + x ** 2) ** 3)

        def reduced(x):
            (p, dp, _), q = z1(x), z2(x)
            return p * q * dp / (p ** 2 + q ** 2) ** 2

        def full(x):
            (p, dp, ddp), q = z1(x), z2(x)
            r2 = p ** 2 + q ** 2
            return ((dp ** 2 + p * ddp) / r2
                    - 2 * p * dp * (p * dp - q * (dz2(0) - dz2(x))) / r2 ** 2)

        pieces = [0, b1, b2, b3, mpmath.inf]
        return (float(4 * dz2(0) * mpmath.quad(reduced, pieces)),
                float(2 * mpmath.quad(full, pieces)))


@pytest.mark.parametrize("params", [DEFAULT, TurningParams(b=2.0, cbar=-0.63671875)],
                         ids=["default", "cancelling"])
def test_certificate_quadratures_match_40_digit_reference(params):
    """The Gauss-Legendre panel sums against mpmath at 40 digits, within
    1e-11 relative.  In the cancelling case dv1(0) is only 5.2e-4."""
    red_ref, full_ref = dv1_reference(params)
    assert abs(dv1_at_zero_reduced(params) - red_ref) <= 1e-11 * abs(red_ref)
    assert abs(dv1_at_zero_full(params) - full_ref) <= 1e-11 * abs(full_ref)
