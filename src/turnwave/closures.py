"""Physics closures: geometry -> vorticity amplitude and its evolution.

Euler closure (water waves): omega_t is defined implicitly because the
time derivative of the Birkhoff-Rott velocity contains omega_t under the
integral.  We split d_t BR into its omega_t-linear part, BR(z, omega_t),
and the geometric part driven by the curve velocity; the relation is then
a linear system for omega_t.  The alternating-point BR matrix couples
only nodes of opposite parity, so the system is solved directly through
its N/2 x N/2 Schur complement (LU), never assembled at N x N.
"""

from dataclasses import dataclass

import numpy as np

from .curve import Curve, derivative, scratch
from .singular import br_block, br_rate, br_velocity
from .spectral import antiderivative, fourier_derivative


class ClosureIterationError(Exception):
    """The water-wave amplitude system is singular or was not solved to
    SOLVE_RESIDUAL_BOUND."""


# max-norm residual allowed after the direct solve, relative to
# max(1, |explicit terms|)
SOLVE_RESIDUAL_BOUND = 1e-8


@dataclass(frozen=True)
class PhysicalConstants:
    rho1: float = 0.0
    rho2: float = 1.0
    g: float = 1.0
    mu: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("g", "mu", "kappa"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def rho_jump(self) -> float:
        return self.rho2 - self.rho1

    @property
    def darcy_factor(self) -> float:
        return self.rho_jump * self.kappa * self.g / self.mu

    @property
    def periodic_prefactor(self) -> float:
        """Prefactor of the periodic Muskat velocity: darcy_factor / (4 pi)
        reproduces the open-line linear decay rate."""
        return self.darcy_factor / (4.0 * np.pi)


def waterwave_rhs(curve: Curve, omega, consts: PhysicalConstants):
    """(z_t, omega_t) of the water-wave system on a periodic curve.

    z_t = BR(z, omega) + c d_alpha z, with the tangential speed c that
    keeps |d_alpha z| uniform in alpha: for
    theta = (d_alpha z . d_alpha BR) / |d_alpha z|^2, c' = mean(theta) - theta
    with zero mean.  Then

    omega_t = -2 d_t BR . z_a - d_a(|omega|^2 / (4 |z_a|^2))
              + d_a(c omega) + 2 c d_a BR . z_a - 2 g d_a z2,

    with d_t BR = BR(z, omega_t) + the geometric part driven by z_t.
    BR(z, omega_t) . z_a is linear in omega_t, so omega_t solves
    (I + 2 Re(diag(tau) A)) omega_t = explicit terms, tau = z1_a + i z2_a and
    A the alternating-point BR matrix; see _amplitude_solve.  The cot block
    of A is evaluated once and serves BR, its geometric rate and the solve.
    """
    omega = np.asarray(omega, dtype=float)
    cot = br_block(curve)
    tp = np.column_stack(derivative(curve, 1))
    speed2 = (tp ** 2).sum(axis=1)
    br = br_velocity(cot, omega)
    dbr_tangential = (tp * fourier_derivative(br.T).T).sum(axis=1)
    theta = dbr_tangential / speed2
    c = antiderivative(np.mean(theta) - theta)
    u = br + c[:, None] * tp

    geo = br_rate(cot, omega, u)
    d_energy, d_transport = fourier_derivative(np.stack([omega ** 2 / (4.0 * speed2),
                                                         c * omega]))
    explicit = (-2.0 * (geo * tp).sum(axis=1)
                - d_energy
                + d_transport
                + 2.0 * c * dbr_tangential
                - 2.0 * consts.g * tp[:, 1])
    return u, _amplitude_solve(cot, tp[:, 0] + 1j * tp[:, 1], explicit)


def _amplitude_solve(cot, tau, rhs) -> np.ndarray:
    """Solve (I + 2 Re(diag(tau) A)) x = rhs, where A is the alternating-
    point BR matrix with A[even, odd] = (-i/N) cot, A[odd, even] = its
    negated transpose, and zeros on pairs of equal parity.

    The system's (even, even) and (odd, odd) blocks are therefore the
    identity.  With its off-diagonal blocks P (even <- odd) and Q
    (odd <- even), x_e solves the N/2 Schur complement
    (I - P Q) x_e = r_e - P r_o, and x_o = r_o - Q x_e.  The residual is
    checked on all N rows of the original system.

    P, Q, I - P Q and the complex products they are taken from are scratch
    views.  Q is in F order, as numpy lays out the product with cot.T, and
    I - P Q is formed as 0 - P Q, then 1 added on the diagonal: 1 + (0 -
    x) is 1 - x in IEEE arithmetic, so the matrix is np.eye - P @ Q bit
    for bit."""
    k = -1j / tau.size
    z = np.multiply((k * tau[::2])[:, None], cot, out=scratch(0, cot.shape, complex))
    P = np.multiply(2.0, z.real, out=scratch(1, cot.shape))
    z = np.multiply((k * tau[1::2])[:, None], cot.T,
                    out=scratch(0, cot.T.shape, complex, order="F"))
    Q = np.multiply(-2.0, z.real, out=scratch(2, cot.T.shape, order="F"))
    r_e, r_o = rhs[::2], rhs[1::2]
    schur = np.matmul(P, Q, out=scratch(0, (P.shape[0], Q.shape[1])))
    np.subtract(0.0, schur, out=schur)
    schur.reshape(-1)[::schur.shape[0] + 1] += 1.0
    try:
        x_e = np.linalg.solve(schur, r_e - P @ r_o)
    except np.linalg.LinAlgError as exc:
        raise ClosureIterationError("water-wave amplitude system is singular") from exc
    qx = Q @ x_e
    x_o = r_o - qx
    residual = float(max(np.max(np.abs(x_e + P @ x_o - r_e)),
                         np.max(np.abs(qx + x_o - r_o))))
    bound = SOLVE_RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(rhs))))
    if not residual < bound:
        raise ClosureIterationError(
            f"water-wave amplitude solve left residual {residual:.3e} "
            f"above {bound:.3e}")
    x = np.empty(tau.size)
    x[::2], x[1::2] = x_e, x_o
    return x
