"""Interface representation and calculus on sampled curves.

A curve is a sampled parameterization alpha -> (z1(alpha), z2(alpha)).
Two topologies are supported:

* periodic: uniform grid alpha_i = 2*pi*i/N on [0, 2*pi); z1 - alpha and
  z2 are 2*pi-periodic.  Calculus is spectral.
* open: uniform symmetric grid on [-L, L]; the curve is flat-at-infinity,
  |z(alpha) - (alpha, z2(+-L))| small at the truncation.  Calculus uses
  the quintic interpolating spline, through its fixed nodal derivative
  operators.

A Curve may also hold a stack of curves on one grid: z1 and z2 of shape
(k, N), one row per member (a group of samples of a run).  derivative,
arc_chord, min_slope and graph_slope_sup act on each member; a member
of a stack goes through the same operations as when it is given alone,
so its results are the same floats.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .spectral import fourier_derivative

PERIODIC = "periodic"
OPEN = "open"

MIN_NODES = 16
# Rows per block of the O(N^2) pair sweep (pair_blocks).  With the blocks
# formed by outer, 64 is the fastest of 32, 64 and 128 for both Muskat
# right-hand sides at N = 512 and 513 (by 13-15% over 32, 1-14% over 128)
# and ties with 32 at N = 2048.  The height also fixes how the kernel
# products are grouped into sums, so changing it changes the last bits.
BLOCK_ROWS = 64
# nodes per chunk of the pruned arc-chord sup (_chunk_layout)
CHUNK = 16
# relative slack of its pruning test, far above the rounding it covers
PRUNE_MARGIN = 1e-12
# chunk pairs c < c' within this many chunks also get its projection bound
REACH = 4
# arc-chord sup of a curve self-intersecting at grid resolution (ArcChordFailure, ck_solve)
ARC_CHORD_MAX = 1e8
# half-bandwidth and block height of the open-curve derivative products
SPLINE_BAND = 64
# rows of A^-1 computed below the band that those blocks read (_spline_operators)
SPLINE_MARGIN = 32


@dataclass
class Curve:
    topology: str
    alpha: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    L: Optional[float] = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.z1 = np.asarray(self.z1, dtype=float)
        self.z2 = np.asarray(self.z2, dtype=float)
        if self.topology not in (PERIODIC, OPEN):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.z1.shape != self.z2.shape or self.z1.shape[-1:] != self.alpha.shape:
            raise ValueError("z1 and z2 must have identical shapes, ending in alpha's")
        if self.alpha.size < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes")
        self.alpha = _checked_grid(self.alpha)
        if self.topology == OPEN and self.L is None:
            self.L = float(abs(self.alpha[0]))

    @property
    def n(self) -> int:
        return self.alpha.size

    def points(self) -> np.ndarray:
        """Node coordinates as an (N, 2) array, (k, N, 2) for a stack."""
        return np.stack([self.z1, self.z2], axis=-1)

    def with_components(self, z1, z2) -> "Curve":
        return Curve(self.topology, self.alpha, np.asarray(z1, float),
                     np.asarray(z2, float), L=self.L)


# the last grid that passed _checked_grid, as a read-only copy
_checked = None


def _checked_grid(alpha: np.ndarray) -> np.ndarray:
    """alpha, strictly increasing, as a read-only copy that later curves on
    the same grid pass back: the stacks, members and updated curves cut
    from a curve share its grid, and that grid is checked once, not on
    every construction.  Any other array is checked, also one with the
    same values; the copy keeps a later write to alpha off the grid."""
    global _checked
    if alpha is not _checked:
        if np.any(np.diff(alpha) <= 0):
            raise ValueError("alphas must be strictly increasing")
        _checked = alpha.copy()
        _checked.flags.writeable = False
    return _checked


def periodic_grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def open_grid(n: int, L: float = 40.0) -> np.ndarray:
    return np.linspace(-L, L, n)


def resample(curve: Curve, m: int) -> Curve:
    """Trigonometric resampling of a periodic curve to m nodes.

    Upsampling zero-pads the spectrum (adds no information; the new tail
    is exactly zero), downsampling truncates it.
    """
    if curve.topology != PERIODIC:
        raise ValueError("resample applies to periodic curves only")
    n = curve.n

    def _interp(samples):
        coeffs = np.fft.fft(samples) / n
        out = np.zeros(m, dtype=complex)
        half = min(n, m) // 2
        out[:half] = coeffs[:half]
        out[-half:] = coeffs[-half:]
        return np.real(np.fft.ifft(out) * m)

    a = periodic_grid(m)
    return Curve(PERIODIC, a, a + _interp(curve.z1 - curve.alpha),
                 _interp(curve.z2))


def graph_curve(f) -> Curve:
    """Embed periodic graph samples f(alpha_i) as the curve (alpha, f(alpha))."""
    a = periodic_grid(np.size(f))
    return Curve(PERIODIC, a, a.copy(), f)


def derivative(curve: Curve, order=1):
    """Per-component d^order/d alpha^order, order 1 or 2, sampled at the
    nodes: (d1, d2), each of z1's shape, (N,) or (k, N) for a stack.  The
    order (1, 2) gives both pairs, ((d1, d2), (dd1, dd2)), each the bits
    of its single-order call.

    Periodic: spectral (exact for band-limited data), one batched FFT
    over both components and the stack, and for (1, 2) one inverse FFT
    over both orders; the linear part of z1 is handled separately.  Open:
    the quintic interpolating spline's derivative at the nodes, a banded
    matrix product (_spline_operators) applied to each member's (N, 2)
    points as a (k, N, 2) matmul stack, which gives each member the bits
    it gets alone; (1, 2) takes both products of a block in one pass.
    """
    both = order == (1, 2)
    if not (both or order in (1, 2)):
        raise ValueError("order must be 1, 2 or (1, 2)")
    orders = order if both else (order,)
    if curve.topology == PERIODIC:
        d = fourier_derivative(np.stack([curve.z1 - curve.alpha, curve.z2]), order)
        d = d if both else d[None]
        if orders[0] == 1:
            d[0, 0] += 1.0   # the derivative of the linear part alpha of z1
        pairs = [(d1, d2) for d1, d2 in d]
    else:
        ops = _spline_operators(curve.alpha.tobytes())
        points = curve.points()
        # per block of rows, the product of each order asked for
        rows = [[op @ points[..., j0:j1, :] for j0, j1, op in span]
                for span in zip(*(ops[o - 1] for o in orders))]
        pairs = [(d[..., 0], d[..., 1])
                 for d in (np.concatenate(col, axis=-2) for col in zip(*rows))]
    return tuple(pairs) if both else pairs[0]


def _bsplines(t, x, mu):
    """The values and the first and second derivatives at x, each of shape
    (x.size, 6), of the six quintic B-splines on the knots t that can be
    nonzero there, those with indices mu - 5 ... mu (t[mu] <= x <
    t[mu + 1]).  The r-th derivative is the Cox-de Boor recursion up to
    degree 5 - r, then r steps of the derivative recursion (de Boor, A
    Practical Guide to Splines, ch. IX-X): the three share the recursion
    up to degree 3 and branch from there.  A ratio whose knot span is
    empty multiplies a zero B-spline and counts as 0."""

    def step(values, d):
        """From values at degree d - 1 to degree d: the Cox-de Boor
        recursion, and d times the difference of the same ratios (one
        step of the derivative recursion)."""
        i = mu[:, None] + np.arange(-d, 1)
        padded = np.pad(values, ((0, 0), (1, 1)))
        spans = t[i + d] - t[i], t[i + d + 1] - t[i + 1]
        left, right = (v / np.where(s > 0.0, s, 1.0)
                       for v, s in zip((padded[:, :-1], padded[:, 1:]), spans))
        return ((x[:, None] - t[i]) * left + (t[i + d + 1] - x[:, None]) * right,
                d * (left - right))

    values = np.ones((x.size, 1))
    for d in (1, 2, 3):
        values, _ = step(values, d)
    values, slopes = step(values, 4)
    return (*step(values, 5), step(slopes, 5)[1])


def _banded_inverse(values, mu, below, above):
    """The diagonals -above .. below + 5 of A^-1 as rows of an array S,
    S[above + d, c] = A^-1[c + d, c], for the collocation matrix
    A[i, mu_i - 5 .. mu_i] = values[i], the B-splines at node i (mu
    nondecreasing).
    Gaussian elimination without pivoting, which is stable for the
    totally positive B-spline collocation matrices (de Boor & Pinkus,
    Numer. Math. 27, 1977), then back substitution: row operations only,
    so the bits do not depend on the thread count.

    Without pivoting L and U keep the profile of A: row r of L starts at
    column mu_r - 5 and row k of U ends at column mu_k, and a multiplier
    or entry outside it is an exact zero, whose update leaves its target's
    bits as they are.  So U is factored in scalar floats over the profile.
    Each column of X = A^-1 is eliminated and back-substituted on its own,
    so both go one diagonal d at a time across all columns: elimination
    subtracts f[r, r - s] X[r - s, c] from X[r, c], r = c + d, for s =
    5 .. 1 (the pivots in order), and back substitution takes X[r, c] -
    sum of U[r, r + s] X[r + s, c] over s = 1 .. 5, then divides by
    U[r, r], for d = below down to -above.  Each entry gets the operations
    of the dense elimination in their order, except that the back
    substitution of column c starts below + 1 .. below + 5 rows under the
    diagonal from the eliminated values instead of those of A^-1."""
    n = mu.size
    rows = np.arange(n)[:, None]
    A = np.zeros((n, 11))   # A[r, 5 + c - r] = A[r, c]
    A[rows, mu[:, None] - rows + np.arange(6)] = values
    U, F = A.tolist(), np.zeros((6, n)).tolist()   # F[s][r] = f[r, r - s]
    first, last = (mu - 5).tolist(), np.minimum(mu, n - 1).tolist()
    end = 0   # the rows r < end start at or before the pivot column
    for k in range(n - 1):
        pivot = U[k]
        while end < n and first[end] <= k:
            end += 1
        for r in range(k + 1, min(end, k + 6)):
            row, shift = U[r], 5 - r
            f = F[r - k][r] = row[shift + k] / pivot[5]
            for c in range(k + 1, last[k] + 1):
                row[shift + c] -= f * pivot[5 + c - k]
    U, F = np.array(U)[:, 5:].T.copy(), np.array(F)   # U[s, k] = U[k, k + s]
    # the rows r with f[r, r - s] != 0 lie in r0[s] <= r < r1[s]
    r0, r1 = (np.argmax(F != 0.0, axis=1).tolist(),
              (n - np.argmax(F[:, ::-1] != 0.0, axis=1)).tolist())
    S = np.zeros((above + below + 6, n))
    S[above] = 1.0
    for d in range(1, below + 6):
        for s in range(min(d, 5), 0, -1):
            c0, c1 = max(0, r0[s] - d), r1[s] - d
            if c0 < c1:
                S[above + d, c0:c1] -= F[s, d + c0:d + c1] * S[above + d - s, c0:c1]
    for d in range(min(below, n - 1), max(-above, 1 - n) - 1, -1):
        c0, c1 = max(0, -d), min(n, n - d)
        terms = U[1:, c0 + d:c1 + d] * S[above + d + 1:above + d + 6, c0:c1]
        S[above + d, c0:c1] = (S[above + d, c0:c1] - terms.sum(axis=0)) / U[0, c0 + d:c1 + d]
    return S


@lru_cache(maxsize=4)
def _spline_operators(nodes: bytes):
    """The first- and second-derivative matrices D_1, D_2 that map values
    at the n nodes (float64 bytes; an open run's grid never changes, so
    they are built once) to the derivatives of their quintic
    interpolating spline at the nodes.  Not-a-knot end conditions: the
    knots are the nodes with each end repeated six times and the two
    nodes next to each end left out.  D_r = B_r A^-1 (_banded_inverse),
    with A and B_r the collocation matrices of the B-splines and of their
    r-th derivatives, whose rows hold the six B-splines nonzero at their
    node.

    On the uniform open grids D_r falls by a factor of about 0.43 per node
    away from the diagonal, so it is kept as read-only row blocks (j0, j1,
    D_r[i0:i0 + SPLINE_BAND, j0:j1]), j0 = i0 - SPLINE_BAND and
    j1 = i0 + 2 SPLINE_BAND clipped to [0, n]: the entries left out are
    below 1e-22 of the largest, and a product costs O(n SPLINE_BAND).

    The blocks read A^-1 within about 2 SPLINE_BAND of its diagonal, and
    only that band is computed, SPLINE_MARGIN rows deeper below it: no
    n x n array is formed, and the build takes O(n SPLINE_BAND) time and
    memory.  Every kept entry goes through the IEEE operations of the
    dense elimination, in the same order, save that the back
    substitution of column c starts SPLINE_MARGIN rows below the deepest
    row read, from the values the elimination left there rather than
    those of A^-1.  That error shrinks by about 0.43 per row on the way
    up, against entries that themselves fall by 0.43 per row away from
    the diagonal, so it reaches a read entry at about 0.43^(2
    SPLINE_MARGIN) = 3e-24 of its size, far below its last bit: the
    blocks are the dense build's, byte for byte (tests/test_curve.py
    compares them at n = 513 and 1025)."""
    x = np.frombuffer(nodes)
    n = x.size
    t = np.concatenate([np.full(6, x[0]), x[3:-3], np.full(6, x[-1])])
    mu = np.minimum(np.searchsorted(t, x, side="right") - 1, n - 1)
    cols = mu[:, None] + np.arange(-5, 1)
    spans = [(i0, min(n, i0 + SPLINE_BAND), max(0, i0 - SPLINE_BAND),
              min(n, i0 + 2 * SPLINE_BAND)) for i0 in range(0, n, SPLINE_BAND)]
    # the band of A^-1 that the blocks read: rows cols[i0:i1], columns j0:j1
    below = max(cols[i0:i1].max() - j0 for i0, i1, j0, j1 in spans)
    above = max(j1 - 1 - cols[i0:i1].min() for i0, i1, j0, j1 in spans)
    values, *derivatives = _bsplines(t, x, mu)
    diagonals = _banded_inverse(values, mu, min(below + SPLINE_MARGIN, n - 1), above)
    operators = ([], [])
    for i0, i1, j0, j1 in spans:
        m0, m1 = cols[i0:i1].min(), cols[i0:i1].max() + 1
        # A^-1[m0:m1, j0:j1], from A^-1[m, j] = diagonals[above + m - j, j]
        window = diagonals.take((above + np.arange(m0, m1))[:, None] * n
                                + np.arange(j0, j1) * (1 - n))
        entries = window[cols[i0:i1] - m0]   # A^-1[cols[i], j] as (rows, 6, columns)
        for v, blocks in zip(derivatives, operators):
            block = (v[i0:i1, :, None] * entries).sum(axis=1)
            block.flags.writeable = False
            blocks.append((j0, j1, block))
    return tuple(map(tuple, operators))


def outer(op, x, y, out=None) -> np.ndarray:
    """op.outer(x, y) for op = np.subtract or np.multiply, as the k = 2
    matrix product [x, -1] @ [1; y] or [x, 0] @ [y; 0], which BLAS forms
    about twice as fast as numpy's broadcasting.  Each entry has exactly
    one inexact term, x_i - y_j or x_i y_j (the others are x_i 1, -1 y_j,
    0 0 and the accumulator's 0), so it is that term rounded once, in any
    summation order, with or without FMA, at any thread count: the same
    value as op.outer.  Only a zero can differ, in its sign: OpenBLAS adds
    the terms to a +0 accumulator, so an entry whose exact value is -0
    comes out +0 ((-0) - (+0), or a zero product of opposite signs).  A
    zero of either sign adds nothing to the sums that the kernels form
    from these blocks.  The operands take O(len(x) + len(y)) memory."""
    left, right = np.empty((len(x), 2)), np.empty((2, len(y)))
    left[:, 0] = x
    if op is np.subtract:
        left[:, 1], right[0], right[1] = -1.0, 1.0, y
    elif op is np.multiply:
        left[:, 1], right[0], right[1] = 0.0, y, 0.0
    else:
        raise ValueError(f"outer forms differences and products, not {op!r}")
    return np.matmul(left, right, out=out)


# The scratch pool of the O(N^2) kernels: three flat float64 buffers, each
# as large as the largest request of its slot so far (scratch).
_pool = [np.empty(0) for _ in range(3)]


def scratch(slot: int, shape, dtype=float, order="C") -> np.ndarray:
    """Pool buffer `slot` (0, 1 or 2) as an uninitialised float or complex
    array of `shape`, in C or F order.  Each buffer grows to the largest
    size requested of it and is kept across calls, so the blocks of the
    O(N^2) kernels (pair_blocks and its pair functions, br_block, br_rate,
    the amplitude solve, arc_chord's batches and bounds) reuse the same
    pages.
    Allocated and freed on every call, blocks of 0.1-0.5 MB sit at glibc's
    mmap and trim thresholds, and the top of the heap is handed back to the
    kernel and faulted in again on the next call.

    A view is overwritten by the next request of its slot, by any caller.
    A function holds views only while it runs and returns none.  While it
    holds them it calls nothing that asks scratch for a slot; the one
    exception is pair_blocks, which hands its consumer views of every slot
    it uses, so the slot numbers stay in the functions that ask for them.
    The pool is for single-threaded use."""
    width = 2 if dtype is complex else 1
    size = width * math.prod(shape)
    if _pool[slot].size < size:
        _pool[slot] = np.empty(size)
    view = _pool[slot][:size]
    return (view.view(complex) if width == 2 else view).reshape(shape, order=order)


def pair_blocks(*xs, rows=None):
    """The upper triangle of node pairs of the first `rows` nodes (all by
    default), BLOCK_ROWS rows at a time: yields (i0, i1, diffs, spare),
    diffs[c] = xs[c][i0:i1, None] - xs[c][None, i0:], formed by outer
    (np.subtract), so the diagonal pairs sit at [k, k] and the leading
    (i1 - i0) square also holds pairs j < i.  Each difference is the
    broadcast one, except that an exact zero comes out +0 where
    broadcasting gives -0 ((-0) - (+0)); a kernel value of either zero
    adds nothing to the block sums of the Muskat kernels.  Two arrays xs
    at most.  The diffs and spare, an uninitialised block of their shape,
    are scratch views that the next block overwrites: a consumer may
    change them in place, but must not keep them or ask scratch for
    anything during the sweep.  It serves the Muskat kernels; arc_chord
    needs only the sup and skips most pairs."""
    n = xs[0].size
    rows = n if rows is None else rows
    bufs = [scratch(slot, (min(BLOCK_ROWS, rows) * n,)) for slot in range(len(xs) + 1)]
    for i0 in range(0, rows, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, rows)
        shape = (i1 - i0, n - i0)
        blocks = [buf[:shape[0] * shape[1]].reshape(shape) for buf in bufs]
        yield i0, i1, [outer(np.subtract, x[i0:i1], x[i0:], out=blk)
                       for x, blk in zip(xs, blocks)], blocks[-1]


@lru_cache(maxsize=4)
def _chunk_layout(grid: bytes, periodic: bool) -> SimpleNamespace:
    """The chunks of arc_chord on a grid (float64 bytes), and the terms of
    its bounds that depend on the grid alone, read-only.

    nodes[c] holds the CHUNK node indices of chunk c < m = ceil(n /
    CHUNK); the last chunk ends at node n - 1 and overlaps its neighbour
    when CHUNK does not divide n, so that every chunk is full.  The near
    chunk pairs (ci, cj), c <= c', are the equal and adjacent ones, plus
    the wrap neighbours (0, m - 1) on a periodic grid, marked by seam.
    The far chunk pairs (fi, fj), c' > c + 1, hold only node pairs i < j;
    far_beta is their widest |beta|.  A window of chunks c .. c + r,
    r <= REACH, is entry r m + c of a projection table: window holds the
    entry of each near chunk pair, and reach_window that of each far
    chunk pair reach[p] within REACH; steps[r, :, c] holds the node
    steps k -> k + 1 from the first node of chunk c + r (clipped to
    m - 1) on, CHUNK of them, clipped to n - 2, and wraps marks the
    windows with beta past -pi, whose pairs wrap.  h2 is the widest grid
    step squared, da the grid steps, span the alpha range of each chunk,
    and antipodal the second wrap of beta on the antipodal pairs of an
    even periodic grid."""
    a = np.frombuffer(grid)
    n = a.size
    m = -(-n // CHUNK)
    nodes = np.minimum(np.arange(m) * CHUNK, n - CHUNK)[:, None] + np.arange(CHUNK)
    ci, cj = np.triu_indices(m)
    seam = periodic & (ci == 0) & (cj == m - 1)
    near = (cj - ci <= 1) | seam
    window = np.minimum(cj - ci, REACH) * m + ci
    fi, fj = ci[~near], cj[~near]
    reach = np.flatnonzero(fj - fi <= REACH)
    first = nodes[np.minimum(np.arange(REACH + 1)[:, None] + np.arange(m), m - 1), 0]
    lo, hi = a[nodes[:, 0]], a[nodes[:, -1]]
    far_beta = hi[fj] - lo[fi]
    if periodic:
        far_beta = np.minimum(np.minimum(far_beta, 2.0 * np.pi - (lo[fj] - hi[fi])), np.pi)
    half = a[:n // 2] - a[n // 2:2 * (n // 2)]
    layout = SimpleNamespace(
        nodes=nodes, ci=ci[near], cj=cj[near], seam=seam[near], window=window[near],
        fi=fi, fj=fj, far_beta=far_beta, reach=reach, reach_window=window[~near][reach],
        steps=np.minimum(first[:, None, :] + np.arange(CHUNK)[:, None], n - 2),
        wraps=periodic & (lo - a[first + CHUNK - 1] < -np.pi),
        h2=np.square(np.diff(a).max()), da=np.diff(a), span=hi - lo,
        antipodal=np.where(half < -np.pi, half, half + 2.0 * np.pi))
    for x in vars(layout).values():
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return layout


@np.errstate(divide="ignore", invalid="ignore")
def arc_chord(curve: Curve, d=None, floor: float = 0.0):
    """sup over node pairs of F(z) = |beta|^2 / |z(a) - z(a-beta)|^2: a
    float, or one per member of a stack, shape (k,).  With a floor b the
    result is max(b, sup) instead, the same float, for a caller that only
    asks whether the sup exceeds b: see the pruning below.

    The diagonal is the removable limit 1 / |d_alpha z|^2, from the first
    derivative d = (d1, d2), of z1's shape, when the caller has it.  A
    zero chord between distinct nodes, or a zero |d_alpha z|, makes the
    sup inf; in a stack the other members keep theirs.  A non-finite node
    makes its curve's sup nan.  F is symmetric, so each pair (i, j), i < j,
    counts once.  Periodic: beta = a_i - a_j wraps to beta + 2 pi below
    -pi, and the z1 difference is unwrapped with it (z1 - alpha is
    periodic).  The antipodal pairs of an even grid (beta = -pi) count
    with both wraps; one O(N) pass adds the second.

    The sup is exact, but most pairs are never evaluated.  The nodes fall
    into chunks of CHUNK (_chunk_layout).  The antipodal pass and the
    diagonal limit give a lower bound s0.  Two upper bounds on F over a
    chunk pair (c, c') let a pair whose bound is at most s (1 -
    PRUNE_MARGIN) be skipped.

    * Projection.  For a pair within the window of nodes from the first
      of chunk c to the last of chunk c', i < j, the chord z_i - z_j is
      the sum of the steps e_k = z_(k+1) - z_k between them, so |z_i -
      z_j| >= (j - i) m, where m is the least projection e_k . u over
      the window on the unit chord u of chunk c; and |beta| <= (j - i) h,
      h the widest grid step.  So F <= h^2 / m^2 when m > 0.  A curve
      that turns back within the window has m <= 0 and is never pruned by
      it, nor is a window with beta past -pi, whose pairs wrap.
    * Boxes.  On a far chunk pair F <= (max |beta|)^2 / dist^2, where dist
      is the distance between the chunks' bounding boxes in (z1, z2).  On
      a periodic grid beta is wrapped, and the second box is taken
      shifted by 0 or -2 pi in z1, whichever is nearer.

    The near chunk pairs are evaluated first, except those whose
    projection bound is at most s0, but the wrap neighbours always: every
    pair they skip is below s0, so they give the s of a full near pass.
    Then the far chunk pairs are evaluated whose box bound, or for c' - c
    <= REACH the smaller of the two bounds, exceeds s.  On a stack the
    bounds take the whole stack at once and the chunk pairs left to
    evaluate are gathered across members, at most BLOCK_ROWS * N node
    pairs at a time, and the projections are taken one window reach at a
    time, so a stack of the STACK_NODES // N samples that stepping.run
    diagnoses at once stays within the memory bound of one curve.  Every
    evaluated pair goes through the same IEEE operations as a full sweep,
    so the sup is the same float.

    A floor b seeds s with max(s0, b) instead, so that every chunk pair
    whose bound is at most b is skipped.  The result is still max(b,
    sup): when the sup exceeds b, the chunk bound of its pair is at least
    the sup, which is above every s reached, so that pair is evaluated;
    when it does not, no pair evaluated exceeds b.  A nan or inf sup
    stays nan or inf.

    Both bounds hold for the rounded F.  On an open curve each operation
    of a box bound is one of F's applied to box ends, and rounding is
    monotone.  The projection bound takes m from rounded steps and
    rounded projections: each computed e_k . u is within a few roundings
    of |e_k| of the exact projection of the exact step, so m less the
    slack 16 eps max |e_k| is at most the exact least projection.  On a
    periodic grid a step, and the dz1 = (x1_i - x1_j) + beta of F, carry
    an absolute rounding of a few eps (|x1| + 2 pi): a further 16 eps
    (max |x1| + 2 pi) comes off m, and off each z1 gap of a box bound.
    A computed chord within that of the exact one is still at least
    (j - i) (m - slack), as j - i >= 1.  The relative roundings, of beta,
    of the squares and the quotient and of |u| = 1, a few eps in all, are
    covered by PRUNE_MARGIN.
    """
    a, n = curve.alpha, curve.n
    periodic = curve.topology == PERIODIC
    z1, z2 = curve.z1.reshape(-1, n), curve.z2.reshape(-1, n)
    x1 = z1 - a if periodic else z1
    L = _chunk_layout(a.tobytes(), periodic)
    nodes = L.nodes
    batch = max(1, BLOCK_ROWS * n // CHUNK ** 2)   # chunk pairs per evaluation
    eps = np.finfo(float).eps
    # the absolute rounding of a periodic dz1 = (x1_i - x1_j) + beta
    unwrap = 16.0 * eps * (np.abs(x1).max(axis=-1) + 2.0 * np.pi) if periodic else 0.0

    def sup(beta, dz1, dz2):
        """max F over all but the first axis, its arguments in place."""
        if periodic:
            dz1 += beta
        denom = np.add(np.square(dz1, out=dz1), np.square(dz2, out=dz2), out=dz1)
        F = np.divide(np.square(beta, out=beta), denom, out=denom)
        return F.max(axis=tuple(range(1, F.ndim)))

    # chunks of x1 and z2 as (members, chunks, CHUNK).  np.take keeps
    # the result C-contiguous: indexing with a slice and an array
    # transposes it, which slows every pass over the pairs
    X1, Z2 = (np.take(x, nodes, axis=1) for x in (x1, z2))

    def evaluate(ci, cj, hits, lower):
        """Raise sups to the max of F over the chunk pairs (ci[p], cj[p])
        of members s, hits = s * len(ci) + p; lower masks the node pairs
        j <= i.  A batch's dz1, dz2 and beta are scratch slots 0, 1, 2."""
        for k in range(0, hits.size, batch):
            s, p = np.divmod(hits[k:k + batch], ci.size)
            I, J = nodes[ci[p]], nodes[cj[p]]
            shape = (p.size, CHUNK, CHUNK)
            dz1, dz2 = (np.subtract(X[s, ci[p]][:, :, None], X[s, cj[p]][:, None, :],
                                    out=scratch(slot, shape))
                        for slot, X in enumerate((X1, Z2)))
            if lower:
                np.copyto(dz2, np.inf, where=I[:, :, None] >= J[:, None, :])   # F = 0
            beta = np.subtract(a[I][:, :, None], a[J][:, None, :], out=scratch(2, shape))
            if periodic:
                np.add(beta, 2.0 * np.pi, out=beta, where=beta < -np.pi)
            np.maximum.at(sups, s, sup(beta, dz1, dz2))   # a nan stays nan

    def projection_bounds():
        """h^2 / (m - slack)^2 for the window of chunks c .. c + r of each
        member, r = 0 .. REACH, as ((REACH + 1) m, members): inf where
        m - slack <= 0 or the window's pairs wrap, nan where a step is
        nan.  The steps of the window are the CHUNK from the first node of
        chunk q on, for q = c .. c + r - 1, and those within chunk c + r.
        The projections of the steps from chunk c + r on are taken one
        reach r at a time, as (CHUNK, m, members) in scratch slots 1 and
        2; the members run along the last, contiguous axis, so that each
        pass over them is one loop."""
        e1, e2 = x1.T[1:] - x1.T[:-1], z2.T[1:] - z2.T[:-1]
        c1, c2 = (np.ascontiguousarray((X[:, :, -1] - X[:, :, 0]).T) for X in (X1, Z2))
        if periodic:
            e1 += L.da[:, None]
            c1 += L.span[:, None]
        length = np.hypot(c1, c2)
        u1, u2 = c1 / length, c2 / length
        low = np.empty((REACH + 1,) + u1.shape)
        for r, steps in enumerate(L.steps):
            shape = steps.shape + e1.shape[1:]
            # mode="clip" (every index is in range) writes to out unbuffered
            proj = np.take(e1, steps, axis=0, out=scratch(1, shape), mode="clip")
            proj *= u1
            term = np.take(e2, steps, axis=0, out=scratch(2, shape), mode="clip")
            proj += np.multiply(term, u2, out=term)
            np.min(proj[:CHUNK - 1], axis=0, out=low[r])
            # whole: the least projection of the CHUNK steps from each of
            # chunks c .. c + r - 1, the window's steps before chunk c + r
            last = np.minimum(low[r], proj[-1])
            if r:
                np.minimum(low[r], whole, out=low[r])
                np.minimum(whole, last, out=whole)
            else:
                whole = last
        size = np.abs(e1, out=scratch(1, e1.shape))
        size += np.abs(e2, out=scratch(2, e2.shape))
        low -= 16.0 * eps * size.max(axis=0) + unwrap
        bound = np.divide(L.h2, np.square(np.maximum(low, 0.0, out=low)), out=low)
        bound[L.wraps] = np.inf
        return bound.reshape(-1, len(z1))

    def far_pairs(projected):
        """member * (far chunk pairs) + pair for each far chunk pair whose
        bound exceeds s (1 - PRUNE_MARGIN), s that member's sup so far.
        The bound's arrays, one row per member, are updated in place."""
        fi, fj = L.fi, L.fj

        def gaps(x):
            """lo_c - hi_c' and lo_c' - hi_c over the far chunk pairs
            (c, c'), lo and hi the ends of the range of x over a chunk:
            their larger one is the gap between the ranges, where it is
            positive.  The chunks are taken as (members, CHUNK, m), so
            that each reduction is one loop, and each difference is taken
            in place of its gathered lo, with no temporary of its own."""
            chunks = np.take(x, nodes.T, axis=1)
            lo, hi = chunks.min(axis=1), chunks.max(axis=1)
            below, above = lo[:, fi], lo[:, fj]
            return (np.subtract(below, hi[:, fj], out=below),
                    np.subtract(above, hi[:, fi], out=above))

        below, above = gaps(z1)
        g1 = np.maximum(below, above)
        if periodic:
            # wrapped pairs have dz1 = z1_i - z1_j + 2 pi, and |beta| <= pi
            below += 2.0 * np.pi
            above -= 2.0 * np.pi
            np.minimum(g1, np.maximum(below, above, out=below), out=g1)
            g1 -= unwrap[:, None]
        del below, above
        below, above = gaps(z2)
        g2 = np.maximum(below, above, out=below)
        del above
        denom = np.square(np.maximum(g1, 0.0, out=g1), out=g1)
        denom += np.square(np.maximum(g2, 0.0, out=g2), out=g2)
        bound = np.divide(np.square(L.far_beta), denom, out=denom)
        bound[:, L.reach] = np.minimum(bound[:, L.reach], projected[L.reach_window].T)
        return np.flatnonzero(bound > sups[:, None] * (1.0 - PRUNE_MARGIN))

    d1, d2 = derivative(curve, 1) if d is None else d
    # |d_alpha z|^2, then its inverse, in scratch slots 0 and 1
    speed2 = np.square(np.reshape(d1, z1.shape), out=scratch(0, z1.shape))
    speed2 += np.square(np.reshape(d2, z1.shape), out=scratch(1, z1.shape))
    stalled = np.any(speed2 == 0.0, axis=-1)
    sups = np.where(stalled, np.inf, np.divide(1.0, speed2, out=speed2).max(axis=-1))
    if periodic and n % 2 == 0:
        h = n // 2
        sups = np.maximum(sups, sup(L.antipodal.copy(), x1[:, :h] - x1[:, h:],
                                    z2[:, :h] - z2[:, h:]))
    np.maximum(sups, floor, out=sups)   # a nan stays nan
    projected = projection_bounds()
    near_bound = projected[L.window].T
    near_bound[:, L.seam] = np.inf
    # a nan bound, from a nan step, is evaluated, and so is its nan
    evaluate(L.ci, L.cj, np.flatnonzero(~(near_bound <= sups[:, None] * (1.0 - PRUNE_MARGIN))),
             True)
    evaluate(L.fi, L.fj, far_pairs(projected), False)
    return _floats(sups.reshape(curve.z1.shape[:-1]))


@dataclass
class SlopeReport:
    min_slope: float              # one per member for a stack
    argmin_alpha: float


def _floats(x: np.ndarray):
    """A 0-d result as a float; a stack's results as they are."""
    return float(x) if x.ndim == 0 else x


def min_slope(curve: Curve, d=None) -> SlopeReport:
    """Minimum of d_alpha z1 with 3-point quadratic subgrid refinement,
    for each member of a stack, from the node derivatives d = (d1, d2)
    that the caller passes, or else the grid derivative.
    """
    d1, _ = derivative(curve, 1) if d is None else d
    a, n = curve.alpha, curve.n
    rows = np.reshape(d1, (-1, n))
    i = np.argmin(rows, axis=-1)
    if curve.topology == PERIODIC:
        im, ip = (i - 1) % n, (i + 1) % n
        h = 2.0 * np.pi / n
    else:
        i = np.clip(i, 1, n - 2)
        im, ip = i - 1, i + 1
        h = a[1] - a[0]
    ym, y0, yp = (rows[np.arange(len(rows)), j] for j in (im, i, ip))
    denom = ym - 2.0 * y0 + yp
    refine = denom > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(0.5 * (ym - yp) / denom, -1.0, 1.0)
    val = np.where(refine, y0 - 0.25 * (ym - yp) * s, y0)
    amin = np.where(refine, a[i] + s * h, a[i])
    if curve.topology == PERIODIC:
        amin = amin % (2.0 * np.pi)
    shape = np.shape(d1)[:-1]
    return SlopeReport(min_slope=_floats(val.reshape(shape)),
                       argmin_alpha=_floats(amin.reshape(shape)))


def graph_slope_sup(curve: Curve, d=None):
    """sup |f_alpha| = sup |d_alpha z2 / d_alpha z1| over nodes where the
    curve is locally a graph; +inf if d_alpha z1 <= 0 somewhere.  One
    per member of a stack.  d is the first derivative (d1, d2) when the
    caller has it."""
    d1, d2 = derivative(curve, 1) if d is None else d
    with np.errstate(divide="ignore", invalid="ignore"):
        sup = np.max(np.abs(d2 / d1), axis=-1)
    return _floats(np.where(np.any(d1 <= 0.0, axis=-1), np.inf, sup))


# --- snapshot file format -------------------------------------------------

def save_csv(curve: Curve, path, t: float = 0.0, omega=None):
    """Curve snapshot: '#' comment header, then alpha,z1,z2[,omega] rows,
    every value as '%.17g' (exact on reading back), formatted in one
    call."""
    cols = [curve.alpha, curve.z1, curve.z2]
    header_cols = "alpha,z1,z2"
    if omega is not None:
        cols.append(np.asarray(omega, dtype=float))
        header_cols += ",omega"
    meta = f"# topology={curve.topology} t={float(t)!r} N={curve.n}"
    if curve.topology == OPEN:
        meta += f" L={curve.L!r}"
    data = np.column_stack(cols)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{meta}\n{header_cols}\n")
        fh.write(row * len(data) % tuple(data.ravel().tolist()))


def load_csv(path):
    """Inverse of save_csv.  Returns (curve, t, omega_or_None)."""
    with open(path) as fh:
        meta = fh.readline().strip()
        header = fh.readline().strip()
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in fh if line.strip()])
    if not meta.startswith("#"):
        raise ValueError(f"{path}: missing comment header")
    kv = dict(item.split("=", 1) for item in meta[1:].split())
    topology = kv["topology"]
    t = float(kv.get("t", 0.0))
    L = float(kv["L"]) if "L" in kv else None
    omega = rows[:, 3] if header.endswith("omega") else None
    curve = Curve(topology, rows[:, 0], rows[:, 1], rows[:, 2], L=L)
    return curve, t, omega
