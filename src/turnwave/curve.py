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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .spectral import fourier_derivative

PERIODIC = "periodic"
OPEN = "open"

MIN_NODES = 16
# Rows per block of the O(N^2) pair sweep (pair_blocks).  Of 32..256, 64 was
# fastest for both Muskat products at N = 512 and 513 (32, by 7%, at N = 2048).
BLOCK_ROWS = 64
# nodes per chunk of the pruned arc-chord sup (_chunk_layout)
CHUNK = 16
# relative slack of its pruning test, far above the rounding it covers
PRUNE_MARGIN = 1e-12
# half-bandwidth and block height of the open-curve derivative products
SPLINE_BAND = 64


@dataclass
class CurveProfile:
    """Closed-form description of a curve, when one is available.

    Used by quadratures that need accuracy beyond the sampled grid
    (semi-infinite tail integrals).  z2 is smooth on |alpha| <= blend_start,
    a polynomial blend up to tail_start and constant for |alpha| >=
    tail_start (odd extension on the left).
    """

    z1: Callable[[np.ndarray], np.ndarray]
    dz1: Callable[[np.ndarray], np.ndarray]
    d2z1: Callable[[np.ndarray], np.ndarray]
    z2: Callable[[np.ndarray], np.ndarray]
    dz2: Callable[[np.ndarray], np.ndarray]
    blend_start: float
    tail_start: float


@dataclass
class Curve:
    topology: str
    alpha: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    L: Optional[float] = None
    profile: Optional[CurveProfile] = field(default=None, repr=False)

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
        if np.any(np.diff(self.alpha) <= 0):
            raise ValueError("alphas must be strictly increasing")
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


def derivative(curve: Curve, order: int = 1):
    """Per-component d^order/d alpha^order, order 1 or 2, sampled at the
    nodes: (d1, d2), each of z1's shape, (N,) or (k, N) for a stack.

    Periodic: spectral (exact for band-limited data), one batched FFT
    over the stack; the linear part of z1 is handled separately.  Open:
    the quintic interpolating spline's derivative at the nodes, a banded
    matrix product (_spline_operators) applied to each member's (N, 2)
    points as a (k, N, 2) matmul stack, which gives each member the bits
    it gets alone.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if curve.topology == PERIODIC:
        d1 = fourier_derivative(curve.z1 - curve.alpha, order)
        if order == 1:
            d1 = d1 + 1.0
        return d1, fourier_derivative(curve.z2, order)
    blocks = _spline_operators(curve.alpha.tobytes())[order - 1]
    points = curve.points()
    d = np.concatenate([op @ points[..., j0:j1, :] for j0, j1, op in blocks], axis=-2)
    return d[..., 0], d[..., 1]


def _bsplines(t, x, mu, k, r):
    """r-th derivatives at x of the k + 1 B-splines of degree k on the knots
    t that can be nonzero there, those with indices mu - k ... mu
    (t[mu] <= x < t[mu + 1]): the Cox-de Boor recursion up to degree
    k - r, then r steps of the derivative recursion (de Boor, A Practical
    Guide to Splines, ch. IX-X).  A ratio whose knot span is empty
    multiplies a zero B-spline and counts as 0."""
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


def _banded_inverse(A, w):
    """A^-1 for a matrix whose nonzeros lie within w of the diagonal, by
    Gaussian elimination without pivoting, which is stable for the
    totally positive B-spline collocation matrices (de Boor & Pinkus,
    Numer. Math. 27, 1977).  Row operations only, in O(w n^2): no BLAS
    or LAPACK call, so the bits do not depend on the thread count."""
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
    below 1e-22 of the largest, and a product costs O(n SPLINE_BAND)."""
    x = np.frombuffer(nodes)
    n = x.size
    t = np.concatenate([np.full(6, x[0]), x[3:-3], np.full(6, x[-1])])
    mu = np.minimum(np.searchsorted(t, x, side="right") - 1, n - 1)
    rows, cols = np.arange(n)[:, None], mu[:, None] + np.arange(-5, 1)
    A = np.zeros((n, n))
    A[rows, cols] = _bsplines(t, x, mu, 5, 0)
    inverse = _banded_inverse(A, 5)
    operators = []
    for r in (1, 2):
        values, blocks = _bsplines(t, x, mu, 5, r), []
        for i0 in range(0, n, SPLINE_BAND):
            i1 = i0 + SPLINE_BAND
            j0, j1 = max(0, i0 - SPLINE_BAND), min(n, i1 + SPLINE_BAND)
            block = sum(values[i0:i1, k, None] * inverse[cols[i0:i1, k], j0:j1]
                        for k in range(6))
            block.flags.writeable = False
            blocks.append((j0, j1, block))
        operators.append(tuple(blocks))
    return tuple(operators)


def pair_blocks(*xs, rows=None):
    """The upper triangle of node pairs of the first `rows` nodes (all by
    default), BLOCK_ROWS rows at a time: yields (i0, i1, diffs), diffs[c] =
    xs[c][i0:i1, None] - xs[c][None, i0:], so the diagonal pairs sit at
    [k, k] and the leading (i1 - i0) square also holds pairs j < i.  The
    diffs live in buffers that the next block overwrites: a consumer may
    change them in place but must not keep them.  It serves the Muskat
    kernels; arc_chord needs only the sup and skips most pairs."""
    n = xs[0].size
    rows = n if rows is None else rows
    bufs = [np.empty(min(BLOCK_ROWS, rows) * n) for _ in xs]
    for i0 in range(0, rows, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, rows)
        shape = (i1 - i0, n - i0)
        yield i0, i1, [np.subtract(x[i0:i1, None], x[None, i0:],
                                   out=buf[:shape[0] * shape[1]].reshape(shape))
                       for x, buf in zip(xs, bufs)]


@lru_cache(maxsize=4)
def _chunk_layout(n: int, periodic: bool):
    """The chunks of arc_chord, read-only.  nodes[c] holds the CHUNK node
    indices of chunk c < m = ceil(n / CHUNK); the last chunk ends at node
    n - 1 and overlaps its neighbour when CHUNK does not divide n, so that
    every chunk is full.  The near chunk pairs c <= c' are the equal and
    adjacent ones, plus the wrap neighbours (0, m - 1) on a periodic grid;
    lower marks their node pairs j <= i.  The far chunk pairs, c' > c + 1,
    hold only pairs i < j."""
    m = -(-n // CHUNK)
    nodes = np.minimum(np.arange(m) * CHUNK, n - CHUNK)[:, None] + np.arange(CHUNK)
    ci, cj = np.triu_indices(m)
    near = (cj - ci <= 1) | (periodic & (ci == 0) & (cj == m - 1))
    lower = nodes[ci[near], :, None] >= nodes[cj[near], None, :]
    near_pairs, far_pairs = (ci[near], cj[near]), (ci[~near], cj[~near])
    for x in (nodes, lower, *near_pairs, *far_pairs):
        x.flags.writeable = False
    return nodes, near_pairs, lower, far_pairs


def arc_chord(curve: Curve, d=None):
    """sup over node pairs of F(z) = |beta|^2 / |z(a) - z(a-beta)|^2: a
    float, or one per member of a stack, shape (k,).

    The diagonal is the removable limit 1 / |d_alpha z|^2, from the first
    derivative d = (d1, d2), of z1's shape, when the caller has it.  A
    zero chord between distinct nodes, or a zero |d_alpha z|, makes the
    sup inf; in a stack the other members keep theirs.  A non-finite node
    makes its curve's sup nan.  F is symmetric, so each pair (i, j), i < j,
    counts once.  Periodic: beta = a_i - a_j wraps to beta + 2 pi below
    -pi, and the z1 difference is unwrapped with it (z1 - alpha is
    periodic).  The antipodal pairs of an even grid (beta = -pi) count
    with both wraps; one O(N) pass adds the second.

    The sup is exact, but most far pairs are never evaluated.  The nodes
    fall into chunks of CHUNK (_chunk_layout).  The near chunk pairs, the
    antipodal pass and the diagonal limit give a lower bound s.  On a far
    chunk pair F <= (max |beta|)^2 / dist^2, where dist is the distance
    between the chunks' bounding boxes in (z1, z2).  On a periodic grid
    beta is wrapped, and the second box is taken shifted by 0 or -2 pi in
    z1, whichever is nearer.  Only the far chunk pairs whose bound exceeds
    s (1 - PRUNE_MARGIN) are evaluated.  On a stack, the near chunk pairs
    go member by member with the beta that all members share, the bounds
    and the O(N) passes take the whole stack at once, and the far chunk
    pairs left to evaluate are gathered across members.  Those go at most
    BLOCK_ROWS * N node pairs at a time, so a stack of the SAMPLE_GROUP
    samples that stepping.run diagnoses at once stays within the memory
    bound of one curve.  Every evaluated pair goes through the same IEEE
    operations as a full sweep, so the sup is the same float.  The bound
    holds for the rounded F too: on an open curve each of its operations
    is one of F's applied to box ends, and rounding is monotone.  On a
    periodic curve the rounded dz1 = (x1_i - x1_j) + beta may stray from
    z1_i - z1_j by a few roundings of |x1| + 2 pi, which each z1 gap gives
    up as slack; the margin covers the rest.
    """
    a, n = curve.alpha, curve.n
    periodic = curve.topology == PERIODIC
    z1, z2 = curve.z1.reshape(-1, n), curve.z2.reshape(-1, n)
    x1 = z1 - a if periodic else z1
    nodes, near, lower, (fi, fj) = _chunk_layout(n, periodic)
    batch = max(1, BLOCK_ROWS * n // CHUNK ** 2)   # chunk pairs per evaluation

    def sup(beta, dz1, dz2, beta2=None):
        """max F over all but the first axis, dz1 and dz2 in place; beta2
        is beta squared, None to square beta in place."""
        if periodic:
            dz1 += beta
        denom = np.add(np.square(dz1, out=dz1), np.square(dz2, out=dz2), out=dz1)
        with np.errstate(divide="ignore"):
            F = np.divide(np.square(beta, out=beta) if beta2 is None else beta2, denom,
                          out=denom)
        return F.max(axis=tuple(range(1, F.ndim)))

    def wrapped(I, J):
        """beta over the node pairs (I[p, r], J[p, c]) of chunk pairs p."""
        beta = a[I][:, :, None] - a[J][:, None, :]
        if periodic:
            np.add(beta, 2.0 * np.pi, out=beta, where=beta < -np.pi)
        return beta

    # chunks of x1 and z2 as (members, chunks, CHUNK).  np.take keeps
    # the result C-contiguous: indexing with a slice and an array
    # transposes it, which slows every pass over the pairs
    count = len(z1)
    X1, Z2 = (np.take(x, nodes, axis=1) for x in (x1, z2))

    def near_sups():
        """sup F over the near chunk pairs of each member, one member at a
        time, with the beta that they all share."""
        beta = wrapped(nodes[near[0]], nodes[near[1]])
        beta2 = np.square(beta)
        out = np.empty(count)
        for i in range(count):
            dz1, dz2 = ((X[i, near[0]][:, :, None] - X[i, near[1]][:, None, :])[None]
                        for X in (X1, Z2))
            np.copyto(dz2, np.inf, where=lower)   # F = 0 on the pairs j <= i
            out[i] = sup(beta, dz1, dz2, beta2)[0]
        return out

    sups = near_sups()
    if periodic and n % 2 == 0:
        h = n // 2
        beta = a[:h] - a[h:]
        beta = np.where(beta < -np.pi, beta, beta + 2.0 * np.pi)
        sups = np.maximum(sups, sup(beta, x1[:, :h] - x1[:, h:], z2[:, :h] - z2[:, h:]))
    d1, d2 = derivative(curve, 1) if d is None else d
    speed2 = np.reshape(d1 ** 2 + d2 ** 2, (-1, n))
    degenerate = np.any(speed2 == 0.0, axis=-1)
    with np.errstate(divide="ignore"):
        sups = np.maximum(sups, np.where(degenerate, np.inf, (1.0 / speed2).max(axis=-1)))

    def far_pairs():
        """member * (far chunk pairs) + pair for each far chunk pair whose
        bound exceeds s (1 - PRUNE_MARGIN), s that member's sup so far.
        The bound's arrays, one row per member, are updated in place."""

        def gaps(chunks):
            """lo_c - hi_c' and lo_c' - hi_c over the far chunk pairs
            (c, c'), lo and hi the ends of a chunk's range of values: their
            larger one is the gap between the ranges, where it is
            positive."""
            lo, hi = chunks.min(axis=-1), chunks.max(axis=-1)
            return lo[:, fi] - hi[:, fj], lo[:, fj] - hi[:, fi]

        below, above = gaps(np.take(z1, nodes, axis=1) if periodic else X1)
        g1 = np.maximum(below, above)
        first, last = a[nodes[:, 0]], a[nodes[:, -1]]
        beta = last[fj] - first[fi]   # the widest |a_i - a_j|
        if periodic:
            # wrapped pairs have dz1 = z1_i - z1_j + 2 pi, and |beta| <= pi
            slack = 16.0 * np.finfo(float).eps * (np.abs(x1).max(axis=-1, keepdims=True)
                                                  + 2.0 * np.pi)
            below += 2.0 * np.pi
            above -= 2.0 * np.pi
            np.minimum(g1, np.maximum(below, above, out=below), out=g1)
            g1 -= slack
            beta = np.minimum(np.minimum(beta, 2.0 * np.pi - (first[fj] - last[fi])), np.pi)
        del below, above
        g2 = np.maximum(*gaps(Z2))
        denom = np.square(np.maximum(g1, 0.0, out=g1), out=g1)
        denom += np.square(np.maximum(g2, 0.0, out=g2), out=g2)
        with np.errstate(divide="ignore"):
            bound = np.divide(np.square(beta), denom, out=denom)
        return np.flatnonzero(bound > sups[:, None] * (1.0 - PRUNE_MARGIN))

    # the far chunk pairs that are not pruned, gathered across members
    hits = far_pairs()
    for k in range(0, hits.size, batch):
        s, p = np.divmod(hits[k:k + batch], fi.size)
        dz1, dz2 = (X[s, fi[p]][:, :, None] - X[s, fj[p]][:, None, :] for X in (X1, Z2))
        top = sup(wrapped(nodes[fi[p]], nodes[fj[p]]), dz1, dz2)
        with np.errstate(invalid="ignore"):   # a nan member stays nan
            np.maximum.at(sups, s, top)
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
    for each member of a stack.

    Uses the curve's closed-form profile when one is attached (exact node
    derivatives); otherwise the grid derivative d = (d1, d2), computed
    here unless the caller passes it.
    """
    if curve.profile is not None:
        d1 = np.broadcast_to(np.asarray(curve.profile.dz1(curve.alpha), dtype=float),
                             curve.z1.shape)
    else:
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
