"""Principal-value quadrature for interface velocities.

Both periodic kernels are evaluated in the conformal coordinates of the
map w = z1 + i z2 -> E = e^{iw} = a + i b, (a, b) = e^{-z2} (cos z1,
sin z1) (_conformal).  Two exact identities turn them into products,
differences and one division per pair, so a call needs O(N)
transcendentals instead of O(N^2):

    sin(dz1) / (cosh(dz2) - cos(dz1)) = 2 (b_i a_j - a_i b_j) / |E_i - E_j|^2
    cot((w_i - w_j) / 2) = [2 (b_i a_j - a_i b_j) + i (|E_i|^2 - |E_j|^2)]
                           / |E_i - E_j|^2

with |E_i - E_j|^2 = (a_i - a_j)^2 + (b_i - b_j)^2.  The denominator does
not cancel the way cosh(dz2) - cos(dz1) does near the diagonal; each
kernel value is as accurate as E itself, which is rounded once per node.
The pairwise differences and products are formed by curve.outer as k = 2
BLAS matrix products, each entry rounded once: the values of numpy's
broadcasting (an exact zero comes out +0), about twice as fast, and the
same at any thread count.

Two kinds of kernels appear:

* genuinely singular (Hilbert-type) kernels: the Birkhoff-Rott integral
  and its geometric time derivative.  These use the alternating-point
  trapezoidal rule: targets of one grid parity integrate against sources
  of the other parity with doubled weight.  Spectrally accurate for
  periodic analytic data.  Only the (even-row, odd-column) block
  cot((w_i - w_j) / 2) of N/2 x N/2 pairs is evaluated, once per curve
  (br_block); the (odd-row, even-column) pairs use its transpose, the
  diagonal is never touched, and no N x N matrix is formed.  The
  geometric rate reuses the block through 1 / sin^2 = 1 + cot^2.
  Periodic curves only: the water-wave problem is posed on a period.
* kernels with a removable singularity: the Muskat contour right-hand
  sides.  Plain trapezoid with the diagonal replaced by its analytic
  limit.  The tangent-difference sum sum_j w_j K_ij (z'_i - z'_j) is
  evaluated as z'_i (K w)_i - (K (w z'))_i.  Both Muskat kernels are
  exactly antisymmetric in floating point: IEEE subtraction is odd, and
  IEEE products commute, so the periodic numerator b_i a_j - a_i b_j
  changes sign exactly under i <-> j.  The products with K are therefore
  summed from the upper-triangle row blocks of curve.pair_blocks alone
  (rows i0:i1 against columns i0:N; these kernels are its only users),
  each block also standing, negated and transposed, for its pairs below
  the diagonal (_tangent_difference).  Each pair is evaluated once, bit
  for bit as a dense evaluation would; no N x N matrix is formed, and
  the temporaries are a few BLOCK_ROWS x N blocks.  The sweep can stop
  after the first rows: d_alpha v1(0) of the turning certificate needs
  the velocity at five nodes (_muskat_periodic).

Complex shorthand: a point (x, y) is w = x + i*y; a velocity (v1, v2) is
recovered from q = v1 - i*v2.  The perp convention is (x, y)^perp =
(-y, x), which makes the flat-contour Birkhoff-Rott equal
(0, Hilbert(omega)/2).
"""

import numpy as np

from .curve import Curve, OPEN, PERIODIC, derivative, outer, pair_blocks, scratch


class QuadratureError(Exception):
    pass


def _require_even(curve: Curve):
    if curve.n % 2 != 0:
        raise QuadratureError("alternating-point quadrature requires even N")


def _conformal(curve: Curve):
    """(a, b) = e^{c - z2} (cos z1, sin z1): the point E = e^{i(w - ic)} =
    a + i b of w = z1 + i z2 under the conformal map of the period onto the
    punctured plane.  The shift c, the mean of z2, cancels from every
    kernel (they are homogeneous of degree 0 in E) and keeps E away from
    overflow and underflow."""
    r = np.exp(np.mean(curve.z2) - curve.z2)
    return r * np.cos(curve.z1), r * np.sin(curve.z1)


def _tangent_difference(x1, x2, pair, weights, d, dd, diag_scale,
                        rows=None) -> np.ndarray:
    """Per component c, sum_j w_j K_ij (d_c[i] - d_c[j]) plus w_i times the
    diagonal limit diag_scale * d_1 dd_c / (d_1^2 + d_2^2), for the first
    `rows` nodes (all by default); shape (2, rows).

    K has a zero diagonal and is exactly odd in floating point (K_ji =
    -K_ij): pair(x1, x2, i0, i1, dx1, dx2, spare) returns its rows i0:i1,
    columns i0:N from the difference blocks and the spare block of
    curve.pair_blocks, all of which it may overwrite.  A block adds
    blk @ X[i0:] to rows i0:i1 of S = K X, X = [w, w d_1, w d_2], and
    subtracts blk[:, i1 - i0:].T @ X[i0:i1] from rows i1:."""
    d1, d2 = d
    rows = d1.size if rows is None else rows
    xs = np.column_stack([weights, weights * d1, weights * d2])
    s = np.zeros_like(xs)
    for i0, i1, (u1, u2), spare in pair_blocks(x1, x2, rows=rows):
        blk = pair(x1, x2, i0, i1, u1, u2, spare)
        s[i0:i1] += blk @ xs[i0:]
        s[i1:] -= blk[:, i1 - i0:].T @ xs[i0:i1]
    d1, d2, s = d1[:rows], d2[:rows], s[:rows]
    limit = diag_scale * weights[:rows] * d1 / (d1 ** 2 + d2 ** 2)
    return np.stack([d1 * s[:, 0] - s[:, 1] + limit * dd[0][:rows],
                     d2 * s[:, 0] - s[:, 2] + limit * dd[1][:rows]])


def br_block(curve: Curve) -> np.ndarray:
    """cot((w_i - w_j) / 2) for even i and odd j: the N/2 x N/2 block from
    which every water-wave Birkhoff-Rott quantity is formed.  Periodic
    curves with even N only.  Evaluated in the conformal coordinates as
    [2 (b_i a_j - a_i b_j) + i (|E_i|^2 - |E_j|^2)] / |E_i - E_j|^2.  Its
    three outer differences and two outer products are formed by
    curve.outer, each entry rounded once, as numpy's broadcasting rounds
    it.  Only an exact zero can differ, in its sign: outer gives +0 where
    broadcasting gives -0 ((-0) - (+0), or a zero product of opposite
    signs).  A numerator p - q of two exact-zero products can then be a
    zero of the other sign, and so can the real part of its entry, which
    adds nothing to the sums of br_velocity, br_rate and the amplitude
    solve.  The differences and products are scratch views; the block
    returned is the caller's."""
    _require_even(curve)
    if curve.topology != PERIODIC:
        raise QuadratureError("Birkhoff-Rott quadrature implemented for periodic curves")
    a, b = _conformal(curve)
    q = a * a + b * b
    ae, be, ao, bo = a[::2], b[::2], a[1::2], b[1::2]
    shape = (ae.size, ao.size)
    denom = outer(np.subtract, ae, ao, out=scratch(0, shape))
    np.square(denom, out=denom)
    diff = outer(np.subtract, be, bo, out=scratch(1, shape))
    denom += np.square(diff, out=diff)
    num = outer(np.multiply, be, ao, out=scratch(1, shape))
    num -= outer(np.multiply, ae, bo, out=scratch(2, shape))
    num *= 2.0
    cot = np.empty(shape, dtype=complex)
    np.divide(num, denom, out=cot.real)
    np.divide(outer(np.subtract, q[::2], q[1::2], out=num), denom, out=cot.imag)
    return cot


def _alternating(block: np.ndarray, x, sign: float) -> np.ndarray:
    """M @ x for the alternating-point matrix M with M[even, odd] = block,
    M[odd, even] = sign * block.T and zeros on pairs of equal parity; x is
    (N,) or (N, k)."""
    q = np.empty(np.shape(x), dtype=complex)
    q[::2] = block @ x[1::2]
    q[1::2] = sign * (block.T @ x[::2])
    return q


def br_velocity(cot: np.ndarray, omega) -> np.ndarray:
    """Birkhoff-Rott velocity of amplitude omega, (N, 2) samples, from the
    block cot = br_block(curve).  With q = v1 - i v2 and h = 2 pi / N,
    q_i = sum_j (2h / 4 pi i) cot((w_i - w_j) / 2) omega_j over i - j odd,
    and 2h / 4 pi i = -i / N.  The quadrature that acceptance criterion 1
    checks against the flat-interface closed form."""
    omega = np.asarray(omega, dtype=float)
    q = (-1j / omega.size) * _alternating(cot, omega, -1.0)
    return np.column_stack([q.real, -q.imag])


def br_rate(cot: np.ndarray, omega, velocity) -> np.ndarray:
    """Time derivative of the Birkhoff-Rott velocity due to the motion of
    the curve alone (amplitude frozen), for curve velocity `velocity`
    ((N, 2) samples), from the block cot = br_block(curve).

    The kernel is -(2h / 8 pi i) (u_i - u_j) / sin^2((w_i - w_j) / 2) with
    u = v1 + i v2 and -2h / 8 pi i = i / 2N.  1 / sin^2 = 1 + cot^2 reuses
    the BR block, and with S = 1 / sin^2 (symmetric) the difference is
    applied as u_i (S omega)_i - (S (u omega))_i; the block S is scratch
    slot 0."""
    omega = np.asarray(omega, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    u = velocity[:, 0] + 1j * velocity[:, 1]
    sq = np.multiply(cot, cot, out=scratch(0, cot.shape, complex))
    s = _alternating(np.add(1.0, sq, out=sq), np.column_stack([omega, u * omega]), 1.0)
    q = (0.5j / omega.size) * (u * s[:, 0] - s[:, 1])
    return np.column_stack([q.real, -q.imag])


def muskat_rhs_periodic(curve: Curve, prefactor: float) -> np.ndarray:
    """Periodic Muskat contour velocity.

    Kernel sin(dz1) / (cosh(dz2) - cos(dz1)), evaluated as
    2 (b_i a_j - a_i b_j) / |E_i - E_j|^2 in the conformal coordinates,
    against the tangent difference; the beta -> alpha limit is
    2 z1' z'' / (z1'^2 + z2'^2).  The prefactor is exposed because the
    periodic equation absorbs its constants; (rho2 - rho1) / (4 pi)
    reproduces the open-line linear decay rate.
    """
    return _muskat_periodic(curve, prefactor)


def _muskat_periodic(curve: Curve, prefactor: float, lead: int = 0,
                     rows=None) -> np.ndarray:
    """muskat_rhs_periodic at the first `rows` nodes -lead, 1 - lead, ...
    (mod N) only, in that order; the pair sweep stops after them."""
    _require_even(curve)
    if curve.topology != PERIODIC:
        raise QuadratureError("use muskat_rhs_open for open curves")
    n = curve.n
    (d1, d2), (dd1, dd2) = derivative(curve, (1, 2))
    values = [*_conformal(curve), d1, d2, dd1, dd2]
    a, b, *d = np.roll(values, lead, axis=1) if lead else values
    v = _tangent_difference(a, b, _conformal_pair, np.full(n, 2.0 * np.pi / n),
                            d[:2], d[2:], 2.0, rows)
    return prefactor * v.T


def _conformal_pair(a, b, i0, i1, da, db, spare):
    """2 (b_i a_j - a_i b_j) / ((a_i - a_j)^2 + (b_i - b_j)^2), the two
    products formed by curve.outer, the second in spare."""
    denom = np.add(np.square(da, out=da), np.square(db, out=db), out=da)
    np.fill_diagonal(denom, 1.0)
    num = outer(np.multiply, 2.0 * b[i0:i1], a[i0:], out=db)
    num -= outer(np.multiply, 2.0 * a[i0:i1], b[i0:], out=spare)
    return np.divide(num, denom, out=num)


def muskat_rhs_open(curve: Curve, darcy_factor: float) -> np.ndarray:
    """Open-line Muskat contour velocity (flat-at-infinity curves).

    Trapezoid over [-L, L] with the diagonal limit z1' z'' / |z'|^2, plus
    the closed-form contribution of the exactly-flat tails
    z(beta) = (beta, c_right) for beta > L and (beta, c_left) for
    beta < -L:

        T(alpha) = (1/2) log( ((z1 - L)^2 + (z2 - c_right)^2)
                            / ((z1 + L)^2 + (z2 - c_left)^2) )

    multiplying (z'(alpha) - (1, 0)).
    """
    if curve.topology != OPEN:
        raise QuadratureError("use muskat_rhs_periodic for periodic curves")
    h = curve.alpha[1] - curve.alpha[0]
    weights = np.full(curve.n, h)
    weights[0] = weights[-1] = 0.5 * h
    (d1, d2), dd = derivative(curve, (1, 2))
    v = _tangent_difference(curve.z1, curve.z2, _open_pair, weights, (d1, d2), dd, 1.0)

    L = float(curve.alpha[-1])
    c_right, c_left = float(curve.z2[-1]), float(curve.z2[0])   # flat-tail heights
    num = (curve.z1 - L) ** 2 + (curve.z2 - c_right) ** 2
    den = (curve.z1 + L) ** 2 + (curve.z2 - c_left) ** 2
    # at the truncation nodes num/den vanish, but so does z' - (1, 0) (flat tail)
    with np.errstate(divide="ignore"):
        T = np.where((num > 0) & (den > 0), 0.5 * np.log(num / den), 0.0)
    v[0] += T * (d1 - 1.0)
    v[1] += T * d2
    return (darcy_factor / (2.0 * np.pi)) * v.T


def _open_pair(z1, z2, i0, i1, dz1, dz2, spare):
    """dz1 / (dz1^2 + dz2^2), dz1^2 in spare."""
    denom = np.square(dz2, out=dz2)
    denom += np.square(dz1, out=spare)
    np.fill_diagonal(denom, 1.0)
    return np.divide(dz1, denom, out=dz1)
