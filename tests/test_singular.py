"""Singular quadrature oracles: flat-contour closed forms, spectral accuracy,
Muskat kernel limits."""

import tracemalloc

import numpy as np
import pytest

from turnwave import singular
from turnwave.curve import (BLOCK_ROWS, Curve, arc_chord, derivative, graph_curve,
                            min_slope, open_grid, outer, pair_blocks, periodic_grid)
from turnwave.closures import ClosureIterationError, _amplitude_solve
from turnwave.initial_data import DV1_NODES, dv1_at_zero_periodic
from turnwave.singular import (QuadratureError, _conformal, _conformal_pair, _open_pair,
                               _tangent_difference, br_block, br_rate, br_velocity,
                               muskat_rhs_open, muskat_rhs_periodic)
from turnwave.spectral import hilbert_transform

from conftest import empty_scratch_pool, flat_curve

PERIODIC, OPEN = "periodic", "open"


def test_flat_birkhoff_rott_matches_hilbert_transform():
    """On the flat contour BR(omega) = (H(omega)/2 in the vertical slot only
    after the symbol bookkeeping); band-limited amplitudes are exact."""
    c = flat_curve(256)
    worst = 0.0
    for k in range(1, 9):
        omega = np.sin(k * c.alpha)
        v = br_velocity(br_block(c), omega)
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
        return br_velocity(br_block(c), np.sin(a))
    err = quadrature_refinement_error(setup(256), setup(128))
    assert err < 1e-10


def test_br_requires_even_grid():
    a = periodic_grid(65)
    c = Curve(PERIODIC, a, a.copy(), np.zeros(65))
    with pytest.raises(QuadratureError):
        br_velocity(br_block(c), np.sin(a))


def test_br_rejects_open_curve():
    """The water-wave problem is periodic-only; an open curve is refused."""
    a = open_grid(64, 10.0)
    c = Curve(OPEN, a, a.copy(), np.zeros(64), L=10.0)
    with pytest.raises(QuadratureError):
        br_velocity(br_block(c), np.sin(a))


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
    # far from z2 = 0, where e^{-z2} alone underflows; the shifted heights
    # are rounded to ulp(800) = 1.1e-13
    far = Curve(PERIODIC, a, c.z1, c.z2 + 800.0)
    assert np.max(np.abs(v - muskat_rhs_periodic(far, 1.0))) < 1e-10


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
    centred difference of br_velocity reproduces the geometric rate."""
    n, eps = 128, 1e-5
    a = periodic_grid(n)
    c = Curve(PERIODIC, a, a + 0.1 * np.sin(a), 0.1 * np.cos(2 * a))
    omega = np.sin(a) + 0.3 * np.cos(2 * a)
    vel = np.column_stack([0.3 * np.cos(a), 0.2 * np.sin(3 * a)])

    def moved(s):
        return br_velocity(br_block(c.with_components(c.z1 + s * vel[:, 0],
                                                      c.z2 + s * vel[:, 1])), omega)

    fd = (moved(eps) - moved(-eps)) / (2.0 * eps)
    rate = br_rate(br_block(c), omega, vel)
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


def open_weights(c):
    """Trapezoid weights of an open curve, halved at both ends."""
    h = c.alpha[1] - c.alpha[0]
    weights = np.full(c.n, h)
    weights[0] = weights[-1] = 0.5 * h
    return weights


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
    d = derivative(c, 1)
    ref = dense_tangent_difference(open_kernel(c.z1, c.z2), open_weights(c), d,
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


# --- the block product against the dense N x N evaluation -------------------

def conformal_kernel(a, b):
    """2 (b_i a_j - a_i b_j) / ((a_i - a_j)^2 + (b_i - b_j)^2) on every
    pair, in the operation order of the blocked kernel; zero diagonal."""
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    denom = da * da + db * db
    np.fill_diagonal(denom, 1.0)
    return (2.0 * b[:, None] * a[None, :] - 2.0 * a[:, None] * b[None, :]) / denom


def dense_product(kern, weights, d, dd, diag_scale):
    """_tangent_difference with S = K @ X, X = [w, w d_1, w d_2], formed from
    the dense kernel, and the rounding bound of the gap between the two:
    2 (N + 3) eps times |d_c| (|K| |X_0|) + |K| |X_c| + |limit dd_c|.  Any
    summation order of a length-N dot product is within N eps (to first
    order) of its |K| |X| times the exact value, and the formula applied
    to S rounds three times more on each side."""
    d1, d2 = d
    xs = np.column_stack([weights, weights * d1, weights * d2])
    s, mag = kern @ xs, np.abs(kern) @ np.abs(xs)
    limit = diag_scale * weights * d1 / (d1 ** 2 + d2 ** 2)
    ref = np.stack([d1 * s[:, 0] - s[:, 1] + limit * dd[0],
                    d2 * s[:, 0] - s[:, 2] + limit * dd[1]])
    scale = np.stack([np.abs(d1) * mag[:, 0] + mag[:, 1] + np.abs(limit * dd[0]),
                      np.abs(d2) * mag[:, 0] + mag[:, 2] + np.abs(limit * dd[1])])
    return ref, 2 * (d1.size + 3) * np.finfo(float).eps * scale


def signed_operands(size, seed):
    """Doubles of both signs and magnitudes from 1e-300 to 1e300; from
    two on, with +0 and -0 among them, and from five on, one inf and one
    nan."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    x[rng.integers(0, size, 6)] = rng.uniform(-1.0, 1.0, 6)   # same-size values
    x[1::7], x[3::11] = 0.0, -0.0
    if size > 4:
        x[size // 2], x[size // 3] = np.inf, np.nan
    return x


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 300), (300, 1), (37, 300),
                                       (BLOCK_ROWS, 513), (128, 128)])
def test_outer_differences_equal_broadcasting(rows, cols):
    """outer(np.subtract) gives x_i - y_j as the broadcast subtraction
    rounds it, on operands with +0, -0, inf and nan: the same values and
    sign bits, except that an exact zero comes out +0.  The broadcast -0
    comes from (-0) - (+0) alone, which the operands hold."""
    x, y = signed_operands(rows, 1), signed_operands(cols, 2)
    with np.errstate(invalid="ignore"):
        want, got = x[:, None] - y[None, :], outer(np.subtract, x, y)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want) & (want != 0))
    if rows > 3 and cols > 1:
        assert np.any((want == 0) & np.signbit(want))
    buf = np.empty((rows, cols))
    with np.errstate(invalid="ignore"):
        assert outer(np.subtract, x, y, out=buf) is buf
    assert buf.tobytes() == got.tobytes()


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 300), (300, 1), (37, 300),
                                       (BLOCK_ROWS, 513), (128, 128)])
def test_outer_products_equal_broadcasting(rows, cols):
    """outer(np.multiply) gives x_i y_j rounded once, as the broadcast
    product does, also where it overflows, underflows or meets inf or nan;
    the sign bits agree except on exact-zero products, which come out
    +0."""
    x, y = signed_operands(rows, 3), signed_operands(cols, 4)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        want, got = x[:, None] * y[None, :], outer(np.multiply, x, y)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want) & (want != 0))
    with pytest.raises(ValueError):
        outer(np.add, x, y)


def broadcast_br_block(curve):
    """br_block as numpy's broadcasting forms it: the reference for the
    products of curve.outer."""
    a, b = _conformal(curve)
    q = a * a + b * b
    ae, be, ao, bo = a[::2, None], b[::2, None], a[None, 1::2], b[None, 1::2]
    denom = np.square(ae - ao) + np.square(be - bo)
    cot = np.empty(denom.shape, dtype=complex)
    np.divide(2.0 * (be * ao - ae * bo), denom, out=cot.real)
    np.divide(q[::2, None] - q[None, 1::2], denom, out=cot.imag)
    return cot


@pytest.mark.parametrize("n", [16, 128, 256, 512])
def test_br_block_equals_broadcast_evaluation(n):
    """Every entry of the block equals the broadcast form's, bit for bit
    (a zero may differ in its sign alone), on a turned curve and on the
    flat line, whose b = 0 at alpha = 0 and pi."""
    for c in (turned_periodic(n), flat_curve(n), near_turnover(n)):
        got, want = br_block(c), broadcast_br_block(c)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", sorted({16, 64, 65, BLOCK_ROWS, 513, 2048}))
def test_blocked_kernels_equal_dense_evaluation(n):
    """Every row block of the upper triangle equals the same rows of a
    dense evaluation of every pair, bit for bit, for sizes below, at and
    off a multiple of BLOCK_ROWS; the dense kernel is exactly odd, so the
    lower triangle is the negated transpose.  The block product
    K [w, w d_1, w d_2] is within the rounding bound of dense_product."""
    cp, co = turned_periodic(n), turned_open(n)
    cases = [(*_conformal(cp), _conformal_pair, conformal_kernel,
              np.full(n, 2.0 * np.pi / n), cp, 2.0),
             (co.z1, co.z2, _open_pair, open_kernel, open_weights(co), co, 1.0)]
    for x1, x2, pair, dense_kernel, weights, c, diag_scale in cases:
        kern = dense_kernel(x1, x2)
        assert np.array_equal(kern, -kern.T)
        rows = []
        for i0, i1, (u1, u2), spare in pair_blocks(x1, x2):
            assert np.array_equal(pair(x1, x2, i0, i1, u1, u2, spare), kern[i0:i1, i0:])
            rows += range(i0, i1)
        assert rows == list(range(n))
        d, dd = derivative(c, 1), derivative(c, 2)
        ref, bound = dense_product(kern, weights, d, dd, diag_scale)
        gap = np.abs(_tangent_difference(x1, x2, pair, weights, d, dd, diag_scale) - ref)
        assert np.all(gap <= bound)


def test_muskat_rhs_match_dense_kernel_product(monkeypatch):
    """Both right-hand sides, with the dense product swapped in for the
    block product, move by less than its rounding bound (dense_product)
    times the prefactor, plus one rounding of the result."""
    cp, co = turned_periodic(512), turned_open(513)
    blocked = muskat_rhs_periodic(cp, 0.3), muskat_rhs_open(co, 1.7)
    dense = {_conformal_pair: conformal_kernel, _open_pair: open_kernel}
    bounds = []

    def dense_swap(x1, x2, pair, weights, d, dd, diag_scale, rows=None):
        assert rows in (None, x1.size)
        ref, bound = dense_product(dense[pair](x1, x2), weights, d, dd, diag_scale)
        bounds.append(bound.T)
        return ref

    monkeypatch.setattr(singular, "_tangent_difference", dense_swap)
    refs = muskat_rhs_periodic(cp, 0.3), muskat_rhs_open(co, 1.7)
    eps = np.finfo(float).eps
    for v, ref, bound, factor in zip(blocked, refs, bounds, (0.3, 1.7 / (2.0 * np.pi))):
        assert not np.array_equal(v, ref)
        assert np.all(np.abs(v - ref) <= factor * bound + 2.0 * eps * np.abs(ref))


def test_muskat_velocities_form_no_n_by_n_array(monkeypatch):
    """At N = DV1_NODES = 2048 the periodic and open right-hand sides and
    dv1_at_zero_periodic allocate at most 4 blocks of BLOCK_ROWS x N
    floats at once (4 MB), where the N x N kernel took 33.5 MB.  Each runs
    once first, to build the cached open-spline operators, and then from
    an empty scratch pool, whose blocks count."""
    n = DV1_NODES
    cp, co, coarse = turned_periodic(n), turned_open(n + 1, L=60.0), turned_periodic(512)
    cases = [lambda: muskat_rhs_periodic(cp, 0.3), lambda: muskat_rhs_open(co, 1.7),
             lambda: dv1_at_zero_periodic(coarse, 0.3)]
    for case in cases:
        case()
        empty_scratch_pool(monkeypatch)
        tracemalloc.start()
        try:
            case()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * BLOCK_ROWS * (n + 1) * 8


# --- the conformal kernels against a 40-digit reference near turnover --------

def near_turnover(n=128):
    """Just past turnover: d_alpha z1 = -0.02 at alpha = 0, where z2 is
    flat enough that neighbouring nodes are 0.005 apart and the Muskat
    kernel reaches |K| = 228.  There cosh(dz2) - cos(dz1) cancels to
    1.3e-5, about five of sixteen digits lost."""
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a - 1.02 * np.sin(a), 0.1 * np.sin(a))


@pytest.fixture(scope="module")
def reference_near_turnover():
    """(sin dz1, -sinh dz2) / (cosh dz2 - cos dz1) on every pair of
    near_turnover(), evaluated to 40 digits from the double-precision
    nodes and rounded once: the Muskat kernel and the real and imaginary
    parts of cot((w_i - w_j) / 2).  Zero on the diagonal."""
    mpmath = pytest.importorskip("mpmath")
    c = near_turnover()
    kern, cot_imag = np.zeros((c.n, c.n)), np.zeros((c.n, c.n))
    with mpmath.workdps(40):
        z1, z2 = [mpmath.mpf(x) for x in c.z1], [mpmath.mpf(x) for x in c.z2]
        for i in range(c.n):
            for j in range(i + 1, c.n):
                d1, d2 = z1[i] - z1[j], z2[i] - z2[j]
                denom = mpmath.cosh(d2) - mpmath.cos(d1)
                kern[i, j] = float(mpmath.sin(d1) / denom)
                cot_imag[i, j] = float(-mpmath.sinh(d2) / denom)
    return c, kern - kern.T, cot_imag - cot_imag.T


def test_muskat_periodic_kernel_matches_40_digit_reference(reference_near_turnover,
                                                          monkeypatch):
    """The kernel entries that muskat_rhs_periodic evaluates, rows i0:i1
    against columns i0:N block by block, are off by at most 1e-10 where
    |K| = 228; the direct sin(dz1) / (cosh(dz2) - cos(dz1)) is off by
    1.4e-9 on this curve."""
    c, kern, _ = reference_near_turnover
    assert np.abs(kern).max() > 200.0
    gaps, rows = [], []

    def recorded(a, b, i0, i1, da, db, spare):
        blk = _conformal_pair(a, b, i0, i1, da, db, spare)
        gaps.append(np.max(np.abs(blk - kern[i0:i1, i0:])))
        rows.extend(range(i0, i1))
        return blk

    monkeypatch.setattr(singular, "_conformal_pair", recorded)
    muskat_rhs_periodic(c, 1.0)
    assert rows == list(range(c.n))
    assert max(gaps) <= 1e-10


def test_br_block_matches_40_digit_reference(reference_near_turnover):
    """Relative error (to the block's largest entry) at most 1e-13; the
    real form (sin dz1 - i sinh dz2) / (cosh dz2 - cos dz1) is off by
    1.5e-11 relative on this curve."""
    c, kern, cot_imag = reference_near_turnover
    ref = (kern + 1j * cot_imag)[::2, 1::2]
    assert relative_gap(br_block(c), ref) <= 1e-13


# --- water-wave block path against the dense N x N alternating-point rule ----

def dense_alternating(kernel, n):
    """N x N alternating-point matrix: kernel(i, j) on pairs with i - j odd,
    zero on pairs of equal parity (the diagonal included)."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    odd = (i - j) % 2 == 1
    out = np.zeros((n, n), dtype=complex)
    out[odd] = kernel(i[odd], j[odd])
    return out


def dense_br_matrix(c):
    """A with q = A @ omega, q = v1 - i v2, weight 2h on every odd pair."""
    w = c.z1 + 1j * c.z2
    h = 2.0 * np.pi / c.n
    return dense_alternating(
        lambda i, j: (2.0 * h / (4.0j * np.pi)) / np.tan(0.5 * (w[i] - w[j])), c.n)


def dense_br_rate_matrix(c, vel):
    w = c.z1 + 1j * c.z2
    u = vel[:, 0] + 1j * vel[:, 1]
    h = 2.0 * np.pi / c.n
    return dense_alternating(
        lambda i, j: (-2.0 * h / (8.0j * np.pi)) * (u[i] - u[j])
        / np.sin(0.5 * (w[i] - w[j])) ** 2, c.n)


def as_velocity(q):
    return np.column_stack([q.real, -q.imag])


def relative_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 256])
def test_br_block_products_match_dense_matrices(n):
    """BR and its geometric rate from the N/2 block equal the dense
    alternating-point products on a turned curve."""
    c = turned_periodic(n)
    a = c.alpha
    omega = np.sin(a) + 0.3 * np.cos(2 * a)
    vel = np.column_stack([0.3 * np.cos(a), 0.2 * np.sin(3 * a)])
    cot = br_block(c)
    assert relative_gap(br_velocity(cot, omega),
                        as_velocity(dense_br_matrix(c) @ omega)) < 1e-13
    assert relative_gap(br_rate(cot, omega, vel),
                        as_velocity(dense_br_rate_matrix(c, vel) @ omega)) < 1e-13


@pytest.mark.parametrize("n", [64, 256])
def test_amplitude_schur_solve_matches_dense_solve(n):
    """The N/2 Schur-complement solve of (I + 2 Re(diag(tau) A)) x = r
    equals np.linalg.solve on the assembled N x N system."""
    c = turned_periodic(n)
    d1, d2 = derivative(c, 1)
    tau = d1 + 1j * d2
    rhs = np.cos(3 * c.alpha) + 0.5 * np.sin(c.alpha)
    system = np.eye(n) + 2.0 * np.real(tau[:, None] * dense_br_matrix(c))
    ref = np.linalg.solve(system, rhs)
    assert relative_gap(_amplitude_solve(br_block(c), tau, rhs), ref) < 1e-13


def test_amplitude_solve_rejects_corrupted_system():
    """A NaN in the block fails the full-system residual check; a singular
    Schur complement (N = 2, P Q = 1) is reported as singular."""
    c = turned_periodic(64)
    d1, d2 = derivative(c, 1)
    cot = br_block(c)
    cot[3, 5] = np.nan
    with pytest.raises(ClosureIterationError, match="residual"):
        _amplitude_solve(cot, d1 + 1j * d2, np.cos(c.alpha))
    with pytest.raises(ClosureIterationError, match="singular"):
        _amplitude_solve(np.ones((1, 1)), np.array([1j, -1j]), np.ones(2))
