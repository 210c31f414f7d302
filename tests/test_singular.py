"""Singular quadrature oracles: flat-contour closed forms, spectral accuracy,
Muskat kernel limits."""

import numpy as np
import pytest

from turnwave import singular
from turnwave.curve import (BLOCK_ROWS, Curve, arc_chord, derivative, flat_curve,
                            graph_curve, min_slope, open_grid, periodic_grid)
from turnwave.singular import (QuadratureError, _antisymmetric_kernel, _open_pair,
                               _periodic_pair, birkhoff_rott,
                               br_geometric_rate, br_matrix, muskat_rhs_open,
                               muskat_rhs_periodic)
from turnwave.spectral import hilbert_transform

PERIODIC, OPEN = "periodic", "open"


def test_flat_birkhoff_rott_matches_hilbert_transform():
    """On the flat contour BR(omega) = (H(omega)/2 in the vertical slot only
    after the symbol bookkeeping); band-limited amplitudes are exact."""
    c = flat_curve(256)
    worst = 0.0
    for k in range(1, 9):
        omega = np.sin(k * c.alpha)
        v = birkhoff_rott(c, omega)
        # closed form: v1 = 0, v2 = H(omega)/2 = -cos(k a)/2
        worst = max(worst,
                    np.max(np.abs(v[:, 0])),
                    np.max(np.abs(v[:, 1] - 0.5 * hilbert_transform(omega))),
                    np.max(np.abs(v[:, 1] + 0.5 * np.cos(k * c.alpha))))
    assert worst < 1e-10


def quadrature_refinement_error(rhs_values_fine, rhs_values_coarse):
    """Max-norm discrepancy between a fine-grid evaluation and a coarse
    evaluation injected on the shared (even-index) nodes."""
    fine = np.asarray(rhs_values_fine)
    coarse = np.asarray(rhs_values_coarse)
    return float(np.max(np.abs(fine[:: fine.shape[0] // coarse.shape[0]] - coarse)))


def test_alternating_rule_spectral_convergence():
    """Doubling N on a smooth non-flat contour changes BR below 1e-10."""
    def setup(n):
        a = periodic_grid(n)
        c = Curve(PERIODIC, a, a + 0.1 * np.sin(a), 0.1 * np.cos(a))
        return birkhoff_rott(c, np.sin(a))
    err = quadrature_refinement_error(setup(256), setup(128))
    assert err < 1e-10


def test_br_matrix_consistent_with_direct_call():
    a = periodic_grid(64)
    c = Curve(PERIODIC, a, a + 0.05 * np.sin(2 * a), 0.05 * np.cos(a))
    omega = np.cos(3 * a)
    mat = br_matrix(c)
    assert np.max(np.abs(birkhoff_rott(c, omega, matrix=mat)
                         - birkhoff_rott(c, omega))) == 0.0


def test_br_requires_even_grid():
    a = periodic_grid(65)
    c = Curve(PERIODIC, a, a.copy(), np.zeros(65))
    with pytest.raises(QuadratureError):
        birkhoff_rott(c, np.sin(a))


def test_muskat_periodic_flat_is_stationary():
    v = muskat_rhs_periodic(flat_curve(128), 1.0 / (4 * np.pi))
    assert np.max(np.abs(v)) < 1e-13


def test_muskat_periodic_linear_decay_rate():
    """Single-mode graph: v2 = -prefactor * 2 pi k f to leading order, so
    the modal decay rate is darcy_factor * k / 2 when prefactor =
    darcy_factor / (4 pi)."""
    n, k, eps = 256, 3, 1e-6
    a = periodic_grid(n)
    c = graph_curve(eps * np.cos(k * a))
    v = muskat_rhs_periodic(c, 1.0 / (4.0 * np.pi))
    expected = -(k / 2.0) * eps * np.cos(k * a)
    assert np.max(np.abs(v[:, 1] - expected)) < 1e-10 * eps / 1e-6


def test_muskat_periodic_wrong_topology():
    a = open_grid(65, 10.0)
    c = Curve(OPEN, a, a.copy(), np.zeros(65))
    with pytest.raises(QuadratureError):
        muskat_rhs_periodic(c, 1.0)


def test_muskat_open_flat_is_stationary():
    c = flat_curve(257, topology=OPEN, L=30.0)
    v = muskat_rhs_open(c, 1.0)
    assert np.max(np.abs(v)) < 1e-10


def test_muskat_open_linear_decay_rate():
    """Localized bump: v2 ~ -(rho_jump/2) |D| f.  Use a Gaussian whose
    transform is known and compare on the center nodes."""
    n, L, eps = 2049, 60.0, 1e-6
    a = open_grid(n, L)
    f = eps * np.exp(-a ** 2)
    c = Curve(OPEN, a, a.copy(), f, L=L)
    v = muskat_rhs_open(c, 1.0)
    # |D| of a Gaussian via the continuous Fourier transform on a wide grid
    xi = np.fft.fftfreq(n, d=a[1] - a[0]) * 2 * np.pi
    fk = np.fft.fft(np.fft.ifftshift(np.exp(-a ** 2)))
    absd = np.fft.fftshift(np.fft.ifft(np.abs(xi) * fk)).real * eps
    mid = abs(v[:, 1] + 0.5 * absd)[np.abs(a) < 5.0]
    assert mid.max() < 2e-3 * eps


def test_muskat_periodic_translation_equivariance():
    n = 128
    a = periodic_grid(n)
    c = Curve(PERIODIC, a, a + 0.1 * np.sin(a), 0.1 * np.cos(2 * a))
    v = muskat_rhs_periodic(c, 1.0)
    shifted = Curve(PERIODIC, a, c.z1, c.z2 + 0.7)  # vertical translation
    v2 = muskat_rhs_periodic(shifted, 1.0)
    assert np.max(np.abs(v - v2)) < 1e-12


def test_muskat_periodic_roll_equivariance():
    """Shifting the sampling by one node permutes the velocity samples."""
    n = 128
    a = periodic_grid(n)
    c = Curve(PERIODIC, a, a + 0.1 * np.sin(a), 0.1 * np.cos(2 * a))
    v = muskat_rhs_periodic(c, 1.0)
    rolled = Curve(PERIODIC, a, a + 0.1 * np.sin(a + a[1]), 0.1 * np.cos(2 * (a + a[1])))
    vr = muskat_rhs_periodic(rolled, 1.0)
    assert np.max(np.abs(vr - np.roll(v, -1, axis=0))) < 1e-11


def test_br_geometric_rate_is_frozen_amplitude_derivative():
    """Moving the nodes along the curve velocity with omega frozen: a
    centred difference of birkhoff_rott reproduces the geometric rate."""
    n, eps = 128, 1e-5
    a = periodic_grid(n)
    c = Curve(PERIODIC, a, a + 0.1 * np.sin(a), 0.1 * np.cos(2 * a))
    omega = np.sin(a) + 0.3 * np.cos(2 * a)
    vel = np.column_stack([0.3 * np.cos(a), 0.2 * np.sin(3 * a)])

    def moved(s):
        return birkhoff_rott(c.with_components(c.z1 + s * vel[:, 0],
                                               c.z2 + s * vel[:, 1]), omega)

    fd = (moved(eps) - moved(-eps)) / (2.0 * eps)
    rate = br_geometric_rate(c, omega, vel)
    assert np.max(np.abs(rate)) > 0.1
    assert np.max(np.abs(fd - rate)) < 1e-8


# --- tangent-difference sums against the dense N x N integrand ----------------

def dense_tangent_difference(kern, weights, d, dd, diag_scale):
    """sum_j w_j K_ij (d_c[i] - d_c[j]) for c = 1, 2, with the diagonal of
    each N x N integrand replaced by diag_scale * d_1 dd_c / |d|^2."""
    speed2 = d[0] ** 2 + d[1] ** 2
    out = []
    for comp in (0, 1):
        integrand = kern * (d[comp][:, None] - d[comp][None, :])
        np.fill_diagonal(integrand, diag_scale * d[0] * dd[comp] / speed2)
        out.append(integrand @ weights)
    return np.array(out)


def periodic_kernel(z1, z2):
    dz1 = z1[:, None] - z1[None, :]
    dz2 = z2[:, None] - z2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.sin(dz1) / (np.cosh(dz2) - np.cos(dz1))
    np.fill_diagonal(kern, 0.0)
    return kern


def open_kernel(z1, z2):
    dz1 = z1[:, None] - z1[None, :]
    dz2 = z2[:, None] - z2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = dz1 / (dz1 ** 2 + dz2 ** 2)
    np.fill_diagonal(kern, 0.0)
    return kern


def turned_periodic(n=256):
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a - 1.2 * np.sin(a), 0.8 * np.sin(a))


def turned_open(n=257, L=10.0):
    a = open_grid(n, L)
    g = np.exp(-0.5 * a ** 2)
    return Curve(OPEN, a, a - 1.2 * a * g, 0.8 * a * g, L=L)


def test_turned_curves_are_not_graphs():
    for c in (turned_periodic(), turned_open()):
        assert min_slope(c).min_slope < -0.1
        assert arc_chord(c) < 1e3


def test_muskat_periodic_matches_dense_sum_on_turned_curve():
    c = turned_periodic()
    h = 2.0 * np.pi / c.n
    ref = dense_tangent_difference(periodic_kernel(c.z1, c.z2), np.full(c.n, h),
                                   derivative(c, 1), derivative(c, 2), 2.0)
    v = muskat_rhs_periodic(c, 0.3)
    assert np.max(np.abs(v - 0.3 * ref.T)) < 1e-13


def test_muskat_open_matches_dense_sum_on_turned_curve():
    c = turned_open()
    h = c.alpha[1] - c.alpha[0]
    weights = np.full(c.n, h)
    weights[0] = weights[-1] = 0.5 * h
    d = derivative(c, 1)
    ref = dense_tangent_difference(open_kernel(c.z1, c.z2), weights, d,
                                   derivative(c, 2), 1.0)
    # flat tails beyond +-L at heights z2(+-L)
    num = (c.z1 - c.L) ** 2 + (c.z2 - c.z2[-1]) ** 2
    den = (c.z1 + c.L) ** 2 + (c.z2 - c.z2[0]) ** 2
    tail = np.zeros(c.n)
    inner = (num > 0) & (den > 0)
    tail[inner] = 0.5 * np.log(num[inner] / den[inner])
    ref[0] += tail * (d[0] - 1.0)
    ref[1] += tail * d[1]
    v = muskat_rhs_open(c, 1.7)
    assert np.max(np.abs(v - (1.7 / (2.0 * np.pi)) * ref.T)) < 1e-13


# --- block assembly against the dense N x N evaluation, bit for bit ----------

@pytest.mark.parametrize("n", sorted({16, 64, 65, BLOCK_ROWS, 513, 2048}))
def test_blocked_kernels_equal_dense_evaluation(n):
    """Row blocks of the upper triangle plus the negated transpose give the
    same matrix as evaluating every pair, for sizes below, at and off a
    multiple of BLOCK_ROWS."""
    c = turned_periodic(n)
    assert np.array_equal(_antisymmetric_kernel(c.z1, c.z2, _periodic_pair),
                          periodic_kernel(c.z1, c.z2))
    c = turned_open(n)
    assert np.array_equal(_antisymmetric_kernel(c.z1, c.z2, _open_pair),
                          open_kernel(c.z1, c.z2))


def test_muskat_rhs_equal_dense_kernel_product(monkeypatch):
    """With the dense kernels swapped in, both right-hand sides come out
    bit-identical: the single N x 3 product is unchanged."""
    cp, co = turned_periodic(512), turned_open(513)
    blocked = muskat_rhs_periodic(cp, 0.3), muskat_rhs_open(co, 1.7)
    dense = {_periodic_pair: periodic_kernel, _open_pair: open_kernel}
    monkeypatch.setattr(singular, "_antisymmetric_kernel",
                        lambda x1, x2, pair: dense[pair](x1, x2))
    assert np.array_equal(blocked[0], muskat_rhs_periodic(cp, 0.3))
    assert np.array_equal(blocked[1], muskat_rhs_open(co, 1.7))
