"""Physics closures: geometry -> vorticity amplitude and its evolution.

Darcy closure (Muskat):  omega = -(rho2 - rho1) * (kappa g / mu) * d_alpha z2.

Euler closure (water waves): omega_t is defined implicitly because the
time derivative of the Birkhoff-Rott velocity contains omega_t under the
integral.  We split d_t BR into its omega_t-linear part, BR(z, omega_t),
and the geometric part driven by the curve velocity; the relation is then
a dense linear system for omega_t, solved directly by LU.
"""

from dataclasses import dataclass

import numpy as np

from .curve import Curve, derivative, tangent
from .singular import birkhoff_rott, br_geometric_rate, br_matrix
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
        if self.g <= 0 or self.mu <= 0 or self.kappa <= 0:
            raise ValueError("g, mu, kappa must be positive")

    @property
    def rho_jump(self) -> float:
        return self.rho2 - self.rho1

    @property
    def darcy_factor(self) -> float:
        return self.rho_jump * self.kappa * self.g / self.mu


def darcy_amplitude(curve: Curve, consts: PhysicalConstants) -> np.ndarray:
    _, d2 = derivative(curve, 1)
    return -consts.darcy_factor * d2


def tangential_speed(curve: Curve, dv_tangential=None, br_velocity=None) -> np.ndarray:
    """Tangential speed keeping |d_alpha z| uniform in alpha.

    With theta = (d_alpha z . d_alpha BR) / |d_alpha z|^2, the choice is
    c' = mean(theta) - theta, normalized to zero mean.  Either the
    pre-differentiated tangential projection (dv_tangential = theta
    samples) or the Birkhoff-Rott samples themselves may be supplied.
    """
    if curve.topology != "periodic":
        raise ValueError("uniform-parameterization gauge needs a periodic curve")
    tp = tangent(curve)
    speed2 = (tp ** 2).sum(axis=1)
    if dv_tangential is None:
        if br_velocity is None:
            raise ValueError("need dv_tangential or br_velocity")
        br_velocity = np.asarray(br_velocity, dtype=float)
        dbr = np.column_stack([fourier_derivative(br_velocity[:, 0]),
                               fourier_derivative(br_velocity[:, 1])])
        dv_tangential = (tp * dbr).sum(axis=1) / speed2
    theta = np.asarray(dv_tangential, dtype=float)
    return antiderivative(np.mean(theta) - theta)


def waterwave_velocity(curve: Curve, omega, c=None, br_mat=None):
    """Curve velocity z_t = BR(z, omega) + c * d_alpha z.

    If c is None the uniform-|d_alpha z| gauge is used.  Returns
    (velocity, c, br_samples)."""
    mat = br_matrix(curve) if br_mat is None else br_mat
    br = birkhoff_rott(curve, omega, matrix=mat)
    if c is None:
        c = tangential_speed(curve, br_velocity=br)
    else:
        c = np.asarray(c, dtype=float)
    u = br + c[:, None] * tangent(curve)
    return u, c, br


def waterwave_amplitude_rhs(curve: Curve, omega, c, consts: PhysicalConstants,
                            velocity=None, br_mat=None) -> np.ndarray:
    """omega_t for the water-wave closure.

    omega_t = -2 d_t BR . z_a - d_a(|omega|^2 / (4 |z_a|^2))
              + d_a(c omega) + 2 c d_a BR . z_a - 2 g d_a z2,

    with d_t BR = BR(z, omega_t) + geometric part.  BR(z, omega_t) . z_a
    is linear in omega_t, so the relation is the dense system
    (I + 2 T) omega_t = explicit terms, solved by LU.
    """
    omega = np.asarray(omega, dtype=float)
    c = np.asarray(c, dtype=float)
    n = curve.n
    mat = br_matrix(curve) if br_mat is None else br_mat
    tp = tangent(curve)
    speed2 = (tp ** 2).sum(axis=1)
    br = birkhoff_rott(curve, omega, matrix=mat)
    if velocity is None:
        velocity = br + c[:, None] * tp
    else:
        velocity = np.asarray(velocity, dtype=float)

    geo = br_geometric_rate(curve, omega, velocity)
    dbr = np.column_stack([fourier_derivative(br[:, 0]),
                           fourier_derivative(br[:, 1])])
    explicit = (-2.0 * (geo * tp).sum(axis=1)
                - fourier_derivative(omega ** 2 / (4.0 * speed2))
                + fourier_derivative(c * omega)
                + 2.0 * c * (dbr * tp).sum(axis=1)
                - 2.0 * consts.g * tp[:, 1])

    # BR(omega_t) . z_alpha = Re(diag(t1 + i t2) @ mat @ omega_t)
    tau = tp[:, 0] + 1j * tp[:, 1]
    system = np.eye(n) + 2.0 * np.real(tau[:, None] * mat)
    try:
        omega_t = np.linalg.solve(system, explicit)
    except np.linalg.LinAlgError as exc:
        raise ClosureIterationError("water-wave amplitude system is singular") from exc
    residual = float(np.max(np.abs(system @ omega_t - explicit)))
    bound = SOLVE_RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(explicit))))
    if not residual < bound:
        raise ClosureIterationError(
            f"water-wave amplitude solve left residual {residual:.3e} "
            f"above {bound:.3e}")
    return omega_t


def waterwave_rhs_residual(curve: Curve, omega, c, consts, omega_t,
                           velocity=None) -> float:
    """Max-norm residual of the implicit omega_t relation (for assertions)."""
    mat = br_matrix(curve)
    tp = tangent(curve)
    speed2 = (tp ** 2).sum(axis=1)
    br = birkhoff_rott(curve, omega, matrix=mat)
    c = np.asarray(c, dtype=float)
    if velocity is None:
        velocity = br + c[:, None] * tp
    geo = br_geometric_rate(curve, omega, velocity)
    br_t = birkhoff_rott(curve, np.asarray(omega_t, float), matrix=mat) + geo
    dbr = np.column_stack([fourier_derivative(br[:, 0]),
                           fourier_derivative(br[:, 1])])
    _, d2 = derivative(curve, 1)
    rhs = (-2.0 * (br_t * tp).sum(axis=1)
           - fourier_derivative(np.asarray(omega, float) ** 2 / (4.0 * speed2))
           + fourier_derivative(c * np.asarray(omega, float))
           + 2.0 * c * (dbr * tp).sum(axis=1)
           - 2.0 * consts.g * d2)
    return float(np.max(np.abs(rhs - np.asarray(omega_t, float))))
