"""Curve geometry: derivatives, arc-chord, slope reports, the graph test."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnwave.curve import (BLOCK_ROWS, CHUNK, SPLINE_BAND, Curve,
                            _spline_operators, arc_chord, derivative, graph_curve,
                            graph_slope_sup, load_csv, min_slope, open_grid,
                            periodic_grid, resample, save_csv)

from turnwave import curve as curve_module
from turnwave.stepping import STACK_NODES

from conftest import empty_scratch_pool, flat_curve

PERIODIC, OPEN = "periodic", "open"


def wavy(n=128, eps=0.1, k=3):
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a + eps * np.sin(k * a), eps * np.cos(k * a))


def test_constructor_validation():
    a = periodic_grid(16)
    with pytest.raises(ValueError):
        Curve("weird", a, a, a)
    with pytest.raises(ValueError):
        Curve(PERIODIC, a, a[:-1], a)
    with pytest.raises(ValueError):
        Curve(PERIODIC, a[::-1], a, a)


def test_grid_is_checked_once_per_grid(monkeypatch):
    """A grid that does not increase raises, also as a second array with
    the values of a checked one.  The curves cut from a checked curve (an
    updated curve, a stack, a member) reuse its grid and do not check it
    again; any other array is checked.  The grid is a read-only copy, so a
    later write to the caller's array does not reach it."""
    a = periodic_grid(64)
    flat = a.copy()
    flat[5] = flat[4]
    with pytest.raises(ValueError, match="increasing"):
        Curve(PERIODIC, flat, a, a)
    c = wavy(64)
    checks = []
    diff = np.diff
    monkeypatch.setattr(np, "diff", lambda x, *args: checks.append(x.size) or diff(x, *args))
    stack = Curve(PERIODIC, c.alpha, np.stack([c.z1, c.z1]), np.stack([c.z2, c.z2]))
    for derived in (c.with_components(c.z1, 2.0 * c.z2), stack,
                    Curve(PERIODIC, stack.alpha, stack.z1[1], stack.z2[1])):
        assert derived.alpha is c.alpha
    assert checks == []
    for grid in (a, c.alpha.copy()):
        assert Curve(PERIODIC, grid, c.z1, c.z2).alpha is not c.alpha
    assert checks == [64, 64]
    bad = c.alpha.copy()
    bad[5] = bad[4]
    with pytest.raises(ValueError, match="increasing"):
        Curve(PERIODIC, bad, c.z1, c.z2)
    assert not c.alpha.flags.writeable
    grid = periodic_grid(64)
    held = Curve(PERIODIC, grid, c.z1, c.z2)
    grid[5] = grid[4]
    assert held.alpha[5] > held.alpha[4]


def test_periodic_derivative_is_one_transform(monkeypatch):
    """derivative of a periodic curve, or of a stack, takes both
    components through one fourier_derivative call, with the bits of one
    call per component."""
    c = wavy(128)
    stack = Curve(PERIODIC, c.alpha, np.stack([c.z1, c.z1 + 0.1]), np.stack([c.z2, -c.z2]))
    calls = []
    transform = curve_module.fourier_derivative
    monkeypatch.setattr(curve_module, "fourier_derivative",
                        lambda f, order: calls.append(f.shape) or transform(f, order))
    for curve in (c, stack):
        for order in (1, 2):
            d1, d2 = derivative(curve, order)
            alone = transform(curve.z1 - curve.alpha, order)
            assert d1.tobytes() == (alone + 1.0 if order == 1 else alone).tobytes()
            assert d2.tobytes() == transform(curve.z2, order).tobytes()
    assert calls == [(2, 128)] * 2 + [(2, 2, 128)] * 2


def test_periodic_derivative_band_limited_exact():
    c = wavy(64, 0.2, 4)
    d1, d2 = derivative(c, 1)
    a = c.alpha
    assert np.max(np.abs(d1 - (1 + 0.8 * np.cos(4 * a)))) < 1e-12
    assert np.max(np.abs(d2 + 0.8 * np.sin(4 * a))) < 1e-12


def test_open_derivative_polynomial():
    a = open_grid(201, 5.0)
    c = Curve(OPEN, a, a + 0.01 * a ** 3, np.exp(-a ** 2))
    d1, _ = derivative(c, 1)
    assert np.max(np.abs(d1 - (1 + 0.03 * a ** 2))) < 1e-9
    # the quintic spline reproduces polynomials of degree <= 5 exactly, so
    # on a quintic both derivative operators are exact to roundoff, which
    # the r-th derivative amplifies by 1 / h^r
    h = a[1] - a[0]
    x = a / 5.0
    c = Curve(OPEN, a, a + 0.2 * x ** 5 - x ** 3, 0.5 * x ** 4 - x ** 5)
    exact = {1: (1 + (x ** 4 - 3 * x ** 2) / 5.0, (2 * x ** 3 - 5 * x ** 4) / 5.0),
             2: ((4 * x ** 3 - 6 * x) / 25.0, (6 * x ** 2 - 20 * x ** 3) / 25.0)}
    for order, (e1, e2) in exact.items():
        d1, d2 = derivative(c, order)
        roundoff = 1e3 * np.finfo(float).eps * 5.0 / h ** order
        assert max(np.max(np.abs(d1 - e1)), np.max(np.abs(d2 - e2))) < roundoff


def dense_banded_inverse(A, w):
    """A^-1 for a matrix whose nonzeros lie within w of the diagonal, by
    Gaussian elimination without pivoting and back substitution over whole
    rows of an n x n array: the reference that _spline_operators' banded
    build must reproduce byte for byte."""
    n = A.shape[0]
    U, X = A.copy(), np.eye(n)
    for k in range(n - 1):
        below = slice(k + 1, min(n, k + w + 1))
        f = U[below, k] / U[k, k]
        U[below, k:k + w + 1] -= f[:, None] * U[k, k:k + w + 1]
        X[below, :k + 1] -= f[:, None] * X[k, :k + 1]
    for k in range(n - 1, -1, -1):
        above = slice(k + 1, min(n, k + w + 1))
        X[k] = (X[k] - (U[k, above, None] * X[above]).sum(axis=0)) / U[k, k]
    return X


def reference_bsplines(t, x, mu, k, r):
    """r-th derivatives at x of the k + 1 B-splines of degree k on the knots
    t that can be nonzero there, those with indices mu - k ... mu: the
    Cox-de Boor recursion up to degree k - r, then r steps of the
    derivative recursion, run for each r on its own.  The reference for
    _bsplines, which shares the recursion between the orders."""
    values = np.ones((x.size, 1))
    for d in range(1, k + 1):
        i = mu[:, None] + np.arange(-d, 1)
        padded = np.pad(values, ((0, 0), (1, 1)))
        spans = t[i + d] - t[i], t[i + d + 1] - t[i + 1]
        left, right = (v / np.where(s > 0.0, s, 1.0)
                       for v, s in zip((padded[:, :-1], padded[:, 1:]), spans))
        if d <= k - r:
            values = (x[:, None] - t[i]) * left + (t[i + d + 1] - x[:, None]) * right
        else:
            values = d * (left - right)
    return values


def dense_spline_operators(x):
    """The row blocks of _spline_operators, D_r = B_r A^-1, built from the
    dense n x n A and A^-1: the reference for the banded build."""
    n = x.size
    t = np.concatenate([np.full(6, x[0]), x[3:-3], np.full(6, x[-1])])
    mu = np.minimum(np.searchsorted(t, x, side="right") - 1, n - 1)
    rows, cols = np.arange(n)[:, None], mu[:, None] + np.arange(-5, 1)
    A = np.zeros((n, n))
    A[rows, cols] = reference_bsplines(t, x, mu, 5, 0)
    inverse = dense_banded_inverse(A, 5)
    operators = []
    for r in (1, 2):
        values, blocks = reference_bsplines(t, x, mu, 5, r), []
        for i0 in range(0, n, SPLINE_BAND):
            i1 = i0 + SPLINE_BAND
            j0, j1 = max(0, i0 - SPLINE_BAND), min(n, i1 + SPLINE_BAND)
            blocks.append((j0, j1, sum(values[i0:i1, k, None] * inverse[cols[i0:i1, k], j0:j1]
                                       for k in range(6))))
        operators.append(blocks)
    return operators


@pytest.mark.parametrize("n,L", [(513, 15.0), (513, 40.0), (1025, 15.0), (1025, 40.0)])
def test_spline_operators_equal_the_dense_build(n, L):
    """The banded build of the derivative operators gives every block of
    the dense build, byte for byte."""
    x = open_grid(n, L)
    got, want = _spline_operators.__wrapped__(x.tobytes()), dense_spline_operators(x)
    for blocks, reference in zip(got, want):
        assert len(blocks) == len(reference)
        for (j0, j1, block), (k0, k1, dense) in zip(blocks, reference):
            assert (j0, j1) == (k0, k1) and block.tobytes() == dense.tobytes()


def test_spline_build_memory_is_banded():
    """A fresh build at N = 2049 forms no N x N array: its traced peak is
    at most 16 MB (the dense build's was 101 MB), of which the kept blocks
    are 6.3 MB."""
    nodes = open_grid(2049, 15.0).tobytes()
    tracemalloc.start()
    try:
        _spline_operators.__wrapped__(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_arc_chord_flat_is_one():
    assert abs(arc_chord(flat_curve(64)) - 1.0) < 1e-12


def test_arc_chord_detects_self_intersection():
    a = periodic_grid(64)
    # a figure that revisits a point: z = (cos 2a, sin a) hits (1, 0) twice
    c = Curve(PERIODIC, a, np.cos(2 * a), np.sin(a))
    assert arc_chord(c) == np.inf


def dense_arc_chord_ratio(curve):
    """F on all N x N node pairs at once, diagonal 0 (the off-diagonal sup
    that arc_chord takes before the removable limit), each pair through
    the IEEE operations of arc_chord, so (i, j) and (j, i) give the same
    float.  Periodic: beta = a_i - a_j moves by -+2 pi into [-pi, pi]; an
    antipodal pair of an even grid (|i - j| = N/2) counts with both wraps,
    (i, j) taking the one (j, i) does not."""
    a, n = curve.alpha, curve.n
    beta = a[:, None] - a[None, :]
    if curve.topology == PERIODIC:
        i, j = np.indices((n, n))
        wrap = (np.abs(beta) > np.pi) ^ (2 * (i - j) == n)
        beta = np.where(wrap, beta - np.copysign(2.0 * np.pi, beta), beta)
        p = curve.z1 - a
        dz1 = p[:, None] - p[None, :] + beta
    else:
        dz1 = curve.z1[:, None] - curve.z1[None, :]
    dz2 = curve.z2[:, None] - curve.z2[None, :]
    denom = dz1 ** 2 + dz2 ** 2
    np.fill_diagonal(denom, 1.0)
    return beta ** 2 / denom


def dense_sup(curve):
    """The sup arc_chord must return: the dense pair sup or the diagonal
    limit 1 / |d_alpha z|^2."""
    d1, d2 = derivative(curve, 1)
    return max(dense_arc_chord_ratio(curve).max(), (1.0 / (d1 ** 2 + d2 ** 2)).max())


def far_pair_curve(n, s=1.0):
    """A periodic curve that comes close to its own translate half a period
    away.  s = -1 gives the same curve started from the antipode, which
    moves a sup at an antipodal pair (i, j) into the other index order."""
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a - s * 1.2 * np.sin(a) + 1.05 * np.sin(2 * a),
                 s * 1.5 * np.cos(a) + 0.6 * np.sin(2 * a))


def open_bump_curve():
    b = open_grid(8 * CHUNK + 1, 10.0)
    g = np.exp(-0.5 * b ** 2)
    return Curve(OPEN, b, b - 1.2 * b * g, 0.8 * b * g, L=10.0)


def open_hairpin_curve():
    """An open curve at unit speed that rises along a wall, turns back over
    a half circle and comes down a parallel wall 3.7 away.  Its sup pairs
    the feet of the walls, two chunks apart, with boxes apart by the wall
    gap: the bound of that chunk pair needs the widest beta."""
    a = open_grid(8 * CHUNK + 1, 4 * CHUNK)
    turn = lambda x: 0.5 * (1.0 + np.tanh(0.5 * x))
    theta = 0.5 * np.pi * (turn(a + 16.0) + turn(a - 24.0)) - np.pi * turn(a - 4.0)
    t = np.exp(1j * theta)
    z = np.concatenate([[0.0], np.cumsum(0.5 * (t[1:] + t[:-1]))])
    return Curve(OPEN, a, z.real, z.imag, L=a[-1])


def wrap_neighbour_curve(n):
    """A periodic curve whose slowest point lies halfway between nodes
    N - 1 and 0, so that its sup is the pair (0, N - 1) across the wrap."""
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a - 0.95 * np.sin(a + np.pi / n),
                 0.5 * np.cos(a + np.pi / n))


@pytest.mark.parametrize("curve,antipodal_order", [
    (far_pair_curve(16 * CHUNK), 1),
    (far_pair_curve(16 * CHUNK, -1.0), -1),
    (far_pair_curve(12 * CHUNK + 8), 1),     # even, not a multiple of CHUNK
    (far_pair_curve(12 * CHUNK + 9), 0),     # odd: no antipodal pair
    (open_bump_curve(), 0),
], ids=["periodic", "periodic-from-antipode", "periodic-even-off-block",
        "periodic-odd", "open"])
def test_arc_chord_matches_dense_reference(curve, antipodal_order):
    """The sup over one triangle of pairs plus the mirror wraps equals the
    dense sup over all N x N pairs exactly.  On the even periodic grids the
    sup sits at an antipodal pair (i, j), with i > j (antipodal_order 1)
    or i < j (-1), whose mirror (j, i) wraps the other way and is small:
    the sweep takes only one of the two wraps, the mirror pass the other."""
    F = dense_arc_chord_ratio(curve)
    d1, d2 = derivative(curve, 1)
    assert F.max() > (1.0 / (d1 ** 2 + d2 ** 2)).max()
    if antipodal_order:
        a = curve.alpha
        i, j = np.unravel_index(np.argmax(F), F.shape)
        assert np.sign(i - j) == antipodal_order and abs(a[i] - a[j]) == np.pi
        assert F[j, i] < 0.1 * F[i, j]
    assert arc_chord(curve) == F.max()


@pytest.mark.parametrize("curve,placed", [
    (far_pair_curve(12 * CHUNK + 9),
     lambda i, j, n, beta: abs(i - j) > 2 * CHUNK and abs(beta) > np.pi),
    (far_pair_curve(12 * CHUNK + 9, -1.0),
     lambda i, j, n, beta: abs(i - j) > 2 * CHUNK and abs(beta) < np.pi),
    (wrap_neighbour_curve(131), lambda i, j, n, beta: {i, j} == {0, n - 1}),
    (open_hairpin_curve(), lambda i, j, n, beta: abs(i // CHUNK - j // CHUNK) == 2),
], ids=["far-just-across-the-wrap", "far-just-inside-the-wrap",
        "wrap-neighbours", "open-hairpin"])
def test_arc_chord_exact_where_the_sup_is_placed(curve, placed):
    """Curves whose sup sits at a pair only the far-pair pass or the wrap
    neighbours reach; each is above every other pair and the diagonal."""
    F = dense_arc_chord_ratio(curve)
    i, j = np.unravel_index(np.argmax(F), F.shape)
    assert placed(i, j, curve.n, curve.alpha[i] - curve.alpha[j])
    F[i, j] = F[j, i] = 0.0
    assert F.max() < dense_sup(curve)
    assert arc_chord(curve) == dense_sup(curve)


def smooth_perturbation(n, topology, c):
    """A curve near the flat line, six smooth modes with amplitudes c;
    amplitudes near 0.5 fold it over."""
    if topology == PERIODIC:
        a = periodic_grid(n)
        return Curve(PERIODIC, a, a + c[0] * np.sin(a) + c[1] * np.sin(2 * a + 1.0)
                     + c[2] * np.cos(3 * a), c[3] * np.cos(a) + c[4] * np.sin(2 * a)
                     + c[5] * np.cos(5 * a))
    a = open_grid(n, 10.0)
    g = np.exp(-0.125 * a ** 2)
    return Curve(OPEN, a, a + (3 * c[0] * a + c[1] * a ** 2 + c[2]) * g,
                 (c[3] + c[4] * a + c[5] * a ** 2) * g, L=10.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 17, 47, 64, 131, 512, 513]),
       st.sampled_from([PERIODIC, OPEN]),
       st.lists(st.floats(min_value=-0.6, max_value=0.6), min_size=6, max_size=6))
def test_arc_chord_equals_dense_sup(n, topology, c):
    """The pruned sup is the dense sup to the last bit: one chunk (16),
    sizes that CHUNK does not divide, odd periodic grids."""
    curve = smooth_perturbation(n, topology, c)
    assert arc_chord(curve) == dense_sup(curve)


@pytest.mark.parametrize("topology", [PERIODIC, OPEN])
@pytest.mark.parametrize("given_d", [False, True], ids=["own-d", "finite-d"])
def test_arc_chord_nan_node_gives_nan(topology, given_d):
    """One non-finite node makes the sup nan, so ArcChordFailure fires, also
    when the caller's derivative is finite."""
    curve = smooth_perturbation(131, topology, [0.1, 0.0, 0.05, 0.2, 0.1, 0.0])
    d = derivative(curve, 1) if given_d else None
    curve.z2[70] = np.nan
    assert np.isnan(arc_chord(curve, d))


def projection_bound(curve, c, c2):
    """The projection bound of arc_chord on the window of chunks c .. c2 of
    an open curve, without its rounding slack: h^2 / m^2, m the least
    projection of a node step in the window on chunk c's unit chord, inf
    when m <= 0."""
    first = [min(q * CHUNK, curve.n - CHUNK) for q in (c, c2)]
    z = np.stack([curve.z1, curve.z2])
    chord = z[:, first[0] + CHUNK - 1] - z[:, first[0]]
    steps = np.diff(z[:, first[0]:first[1] + CHUNK], axis=1)
    m = steps[0] * (chord[0] / np.hypot(*chord)) + steps[1] * (chord[1] / np.hypot(*chord))
    return np.diff(curve.alpha).max() ** 2 / m.min() ** 2 if m.min() > 0.0 else np.inf


def diagonal_limit(curve):
    d1, d2 = derivative(curve, 1)
    return (1.0 / (d1 ** 2 + d2 ** 2)).max()


def open_grid_curve(z1, z2):
    return Curve(OPEN, open_grid(129, 8.0), z1, z2, L=8.0)


def zigzag_curve():
    """A gentle open wave whose nodes in chunk 3 step back and forth in z1
    (steps 2.4 h and -0.4 h): m <= 0 on every window that holds them."""
    a = open_grid(129, 8.0)
    k = np.arange(129)
    z1 = a + 0.7 * (a[1] - a[0]) * (-1.0) ** k * (k // CHUNK == 3)
    return open_grid_curve(z1, 0.1 * np.sin(a))


def near_hairpin_curve():
    """An open curve at unit speed that turns back by pi over about eight
    nodes near alpha = 0 and then spreads its legs apart: its sup pairs
    the legs 16 nodes apart, in adjacent chunks."""
    a = open_grid(129, 8.0)
    theta = 0.5 * np.pi * (1.0 + np.tanh(4.0 * a)) + 0.6 * np.tanh(a)
    t = np.exp(1j * theta)
    z = np.concatenate([[0.0], np.cumsum(0.5 * (a[1] - a[0]) * (t[1:] + t[:-1]))])
    return open_grid_curve(z.real, z.imag)


def smooth_open_curve():
    a = open_grid(129, 8.0)
    return open_grid_curve(a + 0.3 * np.sin(a), 0.2 * np.cos(0.7 * a))


def test_arc_chord_zigzag_within_a_chunk_prunes_nothing_there():
    """Steps that go back inside one chunk make m <= 0, so the projection
    bound prunes none of the windows that hold them, and the sup, at a
    backward step, comes out exact.  (The caller's derivative is the wave's
    without the zigzag, whose spline derivative would otherwise give the
    larger diagonal limit.)"""
    curve = zigzag_curve()
    F = dense_arc_chord_ratio(curve)
    i, j = np.unravel_index(np.argmax(F), F.shape)
    assert i // CHUNK == j // CHUNK == 3
    assert all(projection_bound(curve, c, c2) == np.inf for c, c2 in ((2, 3), (3, 3), (3, 4)))
    assert arc_chord(curve) == dense_sup(curve)
    wave = open_grid_curve(curve.alpha, curve.z2)
    assert arc_chord(curve, derivative(wave, 1)) == F.max() > 5.0 * diagonal_limit(wave)


def test_arc_chord_hairpin_within_a_near_window():
    """A fold within one near window puts the sup at a near pair, 16 nodes
    apart, far above the diagonal limit; the fold gives m <= 0 on its
    window, while the straight legs' windows are pruned."""
    curve = near_hairpin_curve()
    F = dense_arc_chord_ratio(curve)
    i, j = np.unravel_index(np.argmax(F), F.shape)
    assert 0 < abs(i - j) <= 2 * CHUNK - 1 and abs(i // CHUNK - j // CHUNK) == 1
    assert F.max() > 100.0 * diagonal_limit(curve)
    assert projection_bound(curve, min(i, j) // CHUNK, max(i, j) // CHUNK) == np.inf
    assert projection_bound(curve, 0, 1) < diagonal_limit(curve)
    assert arc_chord(curve) == dense_sup(curve)


def test_arc_chord_stack_mixes_pruned_and_unpruned_members():
    """On a stack the pruned chunk pairs differ from member to member: the
    smooth curve's windows are pruned, the zigzag's and the fold's are
    not, and on the flat line the bound is 1, which equals s and prunes
    nothing.  Each member gets the dense sup, the float it gets alone.
    (Of the smooth curve's nine single-chunk windows, all but the two
    that hold its slowest stretches are pruned.)"""
    curves = [smooth_open_curve(), zigzag_curve(), near_hairpin_curve(),
              open_grid_curve(open_grid(129, 8.0), np.zeros(129))]
    assert sum(projection_bound(curves[0], c, c) < diagonal_limit(curves[0])
               for c in range(9)) == 7
    stack = Curve(OPEN, curves[0].alpha, np.array([c.z1 for c in curves]),
                  np.array([c.z2 for c in curves]), L=8.0)
    sups = arc_chord(stack)
    for sup, curve in zip(sups, curves):
        assert sup == arc_chord(curve) == dense_sup(curve)


@pytest.mark.parametrize("damage", ["nan", "zero-chord"])
def test_arc_chord_damage_in_a_pruned_window_is_seen(damage):
    """A nan node, or two coincident nodes, inside chunk 4 of a smooth
    curve, whose windows the projection bound would prune: the damaged
    steps make m nan or <= 0, so the window is evaluated and the sup is
    nan, or inf."""
    curve = smooth_open_curve()
    assert projection_bound(curve, 4, 4) < diagonal_limit(curve)
    i = 4 * CHUNK + 5
    if damage == "nan":
        curve.z1[i] = np.nan
        assert np.isnan(arc_chord(curve, derivative(smooth_open_curve(), 1)))
    else:
        curve.z1[i + 3], curve.z2[i + 3] = curve.z1[i], curve.z2[i]
        assert arc_chord(curve, derivative(smooth_open_curve(), 1)) == np.inf


def test_arc_chord_projection_bound_keeps_its_rounding_slack():
    """A straight open line at angle 1.2 whose node 21 stands 0.75 off it,
    between nodes 20 and 22, which are 2e-7 apart along it: the steps
    20 -> 21 -> 22 project on the chunk's chord to about 1e-7, and their
    rounding, about eps |step|, is 1e-9 of that.  Computed without its
    slack the window's bound falls 2.5e-10 below the sup F(20, 22), so
    with s placed between the two (by the caller's derivative) the
    window would be pruned: the slack keeps it evaluated."""
    a = open_grid(65, 4.0)
    u = np.array([np.cos(1.2), np.sin(1.2)])
    t = np.concatenate([a[:21], [a[20] + 1e-7, a[20] + 2e-7], a[21:-2] + 2e-7])
    z = t[:, None] * u
    z[21] += 0.75 * np.array([-u[1], u[0]])
    curve = Curve(OPEN, a, z[:, 0].copy(), z[:, 1].copy(), L=4.0)
    F = dense_arc_chord_ratio(curve)
    assert np.unravel_index(np.argmax(F), F.shape) in ((20, 22), (22, 20))
    assert projection_bound(curve, 1, 1) < F.max() * (1.0 - 1e-10)
    speed = np.full(65, 1.0 / np.sqrt(F.max() * (1.0 - 1e-10)))
    assert arc_chord(curve, (speed, np.zeros(65))) == F.max()


def test_arc_chord_temporaries_stay_bounded(monkeypatch):
    """On a flat line F = 1 on every pair, every far chunk pair's box bound
    exceeds 1, and the projection bound of every window is 1 widened by
    its slack, so nothing prunes.  The pairs still go through in batches
    of at most BLOCK_ROWS * N, three float arrays each, not N^2 / 2 at once
    (50 MB at N = 2048), and the largest stack that run diagnoses at once,
    STACK_NODES // N samples, stays within the same bound.  The traced call
    starts from an empty scratch pool, whose batches count."""
    n = 2048
    line = flat_curve(n)
    members = STACK_NODES // n
    stack = Curve(PERIODIC, line.alpha, np.tile(line.z1, (members, 1)),
                  np.tile(line.z2, (members, 1)))
    for curve in (line, stack):
        d = derivative(curve, 1)
        arc_chord(curve, d)   # builds the cached chunk layout
        empty_scratch_pool(monkeypatch)
        tracemalloc.start()
        try:
            assert np.all(arc_chord(curve, d) == 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 3 * BLOCK_ROWS * n * 8


@pytest.mark.parametrize("topology", [PERIODIC, OPEN])
def test_stack_members_get_their_single_curve_floats(topology):
    """derivative, min_slope, graph_slope_sup and arc_chord on a stack give
    each member the floats it gets alone.  A member with a nan node has
    sup nan, and on the open line one with a zero chord has sup inf, as it
    has alone (a periodic chord between copied nodes is only near zero:
    z1 - alpha is unwrapped in rounded arithmetic); the other members keep
    their values."""
    curves = [smooth_perturbation(131, topology, c) for c in (
        [0.1, 0.0, 0.05, 0.2, 0.1, 0.0], [0.3, 0.2, -0.1, 0.0, 0.4, 0.1],
        [-0.2, 0.1, 0.0, 0.3, -0.1, 0.2], [0.0, 0.3, 0.1, -0.2, 0.0, 0.3])]
    if topology == OPEN:
        curves[1].z1[90], curves[1].z2[90] = curves[1].z1[20], curves[1].z2[20]
    curves[2].z2[70] = np.nan
    c0 = curves[0]
    stack = Curve(topology, c0.alpha, np.array([c.z1 for c in curves]),
                  np.array([c.z2 for c in curves]), L=c0.L)
    def bits(x):   # the bytes, any nan as the same nan
        x = np.array(x, dtype=float)
        x[np.isnan(x)] = np.nan
        return x.tobytes()

    for order in (1, 2):
        for got, alone in zip(derivative(stack, order),
                              zip(*(derivative(c, order) for c in curves))):
            assert bits(got) == bits(alone)
    d = derivative(stack, 1)
    report, slope = min_slope(stack, d), graph_slope_sup(stack, d)
    sup = arc_chord(stack, d)
    for i, c in enumerate(curves):
        alone = min_slope(c)
        assert (report.min_slope[i], report.argmin_alpha[i]) == (
            alone.min_slope, alone.argmin_alpha) or np.isnan(alone.min_slope)
        assert slope[i] == graph_slope_sup(c) or np.isnan(slope[i])
    assert sup[0] == arc_chord(curves[0]) and sup[3] == arc_chord(curves[3])
    assert np.isnan(sup[2]) and np.isnan(arc_chord(curves[2]))
    assert sup[1] == arc_chord(curves[1])
    assert (sup[1] == np.inf) == (topology == OPEN)


def test_arc_chord_coincident_nodes_past_first_block_read_inf():
    """Nodes 6 CHUNK and 8 CHUNK + 1 coincide.  Their far chunk pair (6, 8)
    has bound inf, so it is evaluated, in the second batch of far chunk
    pairs on this flat line, and its zero chord gives sup inf."""
    i, j = 6 * CHUNK, 8 * CHUNK + 1
    a = open_grid(12 * CHUNK + 5, 12.0)
    z1, z2 = a.copy(), np.zeros_like(a)
    z1[j], z2[j] = z1[i], z2[i]
    assert arc_chord(Curve(OPEN, a, z1, z2, L=12.0)) == np.inf


@pytest.mark.parametrize("topology", [PERIODIC, OPEN])
def test_arc_chord_zero_speed_reads_inf(topology):
    """A zero |d_alpha z| at one node makes the diagonal limit 1 / |z'|^2,
    and so the sup, inf on a single curve."""
    c = smooth_perturbation(131 if topology == OPEN else 128, topology,
                            [0.1, 0.0, 0.05, 0.2, 0.1, 0.0])
    d1, d2 = derivative(c, 1)
    assert np.isfinite(arc_chord(c, (d1, d2)))
    d1[40] = d2[40] = 0.0
    assert arc_chord(c, (d1, d2)) == np.inf


def test_min_slope_subgrid_refinement():
    # d_alpha z1 = 1 - 0.5 cos(a - 0.3): minimum 0.5 at a = 0.3, off-grid
    a = periodic_grid(64)
    c = Curve(PERIODIC, a, a - 0.5 * np.sin(a - 0.3), np.zeros(64))
    rep = min_slope(c)
    assert abs(rep.min_slope - 0.5) < 1e-4
    assert abs(rep.argmin_alpha - 0.3) < 1e-2


def test_min_slope_flags_overhang():
    """The graph test of the water-wave pipelines, min d_alpha z1 <= 0, on
    a curve that folds over near alpha = 0 (d_alpha z1 = 1 - 1.5 cos a)."""
    a = periodic_grid(128)
    c = Curve(PERIODIC, a, a - 1.5 * np.sin(a), np.cos(a))
    rep = min_slope(c)
    assert rep.min_slope == pytest.approx(-0.5, abs=1e-12)
    assert min(rep.argmin_alpha, 2 * np.pi - rep.argmin_alpha) < 1e-12


def test_graph_slope_sup():
    c = graph_curve(0.2 * np.sin(periodic_grid(128)))
    assert abs(graph_slope_sup(c) - 0.2) < 1e-10
    a = periodic_grid(128)
    folded = Curve(PERIODIC, a, a - 1.5 * np.sin(a), np.cos(a))
    assert graph_slope_sup(folded) == np.inf


def test_resample_exact_on_band_limited():
    c = wavy(64, 0.2, 3)
    up = resample(c, 256)
    assert np.max(np.abs(up.z2 - 0.2 * np.cos(3 * up.alpha))) < 1e-12
    assert np.max(np.abs(up.z1 - (up.alpha + 0.2 * np.sin(3 * up.alpha)))) < 1e-12
    down = resample(up, 64)
    assert np.max(np.abs(down.z1 - c.z1)) < 1e-12


def test_save_load_round_trip(tmp_path):
    """Every value is written as '%.17g', the text that per-element
    f"{x:.17g}" formatting gives, nan, infinities, -0.0 and subnormals
    included, and reads back as the same float."""
    c = wavy(32)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 1e308, 0.1]
    c.z2[:len(special)] = special
    omega = np.sin(c.alpha)
    omega[-len(special):] = special[::-1]
    path = tmp_path / "snap.csv"
    save_csv(c, path, t=0.25, omega=omega)
    lines = path.read_text().splitlines()
    assert lines[2:] == [",".join(f"{x:.17g}" for x in row)
                         for row in np.column_stack([c.alpha, c.z1, c.z2, omega])]
    back, t, omega_back = load_csv(path)
    assert t == 0.25
    for x, y in ((back.z1, c.z1), (back.z2, c.z2), (omega_back, omega)):
        assert x.tobytes() == y.tobytes()
    assert back.topology == PERIODIC


def test_save_load_open_keeps_truncation(tmp_path):
    a = open_grid(65, 12.0)
    c = Curve(OPEN, a, a.copy(), np.tanh(a), L=12.0)
    save_csv(c, tmp_path / "o.csv")
    back, _, omega = load_csv(tmp_path / "o.csv")
    assert back.topology == OPEN and back.L == 12.0 and omega is None


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.4),
       st.integers(min_value=1, max_value=5))
def test_arc_chord_at_least_inverse_speed_sq(eps, k):
    c = wavy(64, eps, k)
    d1, d2 = derivative(c, 1)
    assert arc_chord(c) >= np.max(1.0 / (d1 ** 2 + d2 ** 2)) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_min_slope_matches_construction(amp):
    a = periodic_grid(128)
    c = Curve(PERIODIC, a, a + amp * np.sin(a), np.zeros(128))
    rep = min_slope(c)
    assert abs(rep.min_slope - (1.0 - abs(amp))) < 1e-6
