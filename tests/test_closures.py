"""Velocity closures: gauge choice, water-wave amplitude equation (implicit
relation and linearized dispersion)."""

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants, waterwave_rhs
from turnwave.curve import derivative, graph_curve, periodic_grid
from turnwave.singular import br_block, br_rate, br_velocity
from turnwave.spectral import antiderivative, fourier_derivative

from conftest import flat_curve


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(mu=-1.0)
    c = PhysicalConstants(rho1=0.2, rho2=1.2, g=2.0, mu=0.5, kappa=1.0)
    assert c.rho_jump == 1.0
    assert c.darcy_factor == pytest.approx(4.0)


def test_tangential_gauge_uniformizes_speed():
    # the gauge preserves an already-uniform |d_alpha z|: the rate of
    # change of |z_alpha|^2 must come out alpha-independent on such data
    a = periodic_grid(128)
    c = flat_curve(128)
    omega = np.sin(a) + 0.3 * np.cos(2 * a)
    u, _ = waterwave_rhs(c, omega, PhysicalConstants(rho1=0.0))
    # d/dt |z_alpha|^2 = 2 z_alpha . d_alpha u must be alpha-independent
    du = np.column_stack([fourier_derivative(u[:, 0]) + 0.0,
                          fourier_derivative(u[:, 1])])
    tp = np.column_stack(derivative(c, 1))
    rate = 2.0 * (tp * du).sum(axis=1)
    assert np.max(rate) - np.min(rate) < 1e-8


def waterwave_rhs_residual(curve, omega, consts, omega_t) -> float:
    """Max-norm residual of the implicit omega_t relation, every term
    re-derived from br_velocity and the geometric rate, with d_t BR =
    BR(z, omega_t) + geometric part applied directly (no linear system)."""
    d1, d2 = derivative(curve, 1)
    tp = np.column_stack([d1, d2])
    speed2 = d1 ** 2 + d2 ** 2
    cot = br_block(curve)
    br = br_velocity(cot, omega)
    dbr = np.column_stack([fourier_derivative(br[:, 0]),
                           fourier_derivative(br[:, 1])])
    theta = (tp * dbr).sum(axis=1) / speed2
    c = antiderivative(np.mean(theta) - theta)
    velocity = br + c[:, None] * tp
    br_t = br_velocity(cot, omega_t) + br_rate(cot, omega, velocity)
    rhs = (-2.0 * (br_t * tp).sum(axis=1)
           - fourier_derivative(omega ** 2 / (4.0 * speed2))
           + fourier_derivative(c * omega)
           + 2.0 * c * (dbr * tp).sum(axis=1)
           - 2.0 * consts.g * d2)
    return float(np.max(np.abs(rhs - omega_t)))


def test_waterwave_amplitude_solves_implicit_relation():
    a = periodic_grid(64)
    c = graph_curve(0.05 * np.cos(a))
    omega = 0.02 * np.sin(a)
    consts = PhysicalConstants(rho1=0.0)
    _, wt = waterwave_rhs(c, omega, consts)
    assert waterwave_rhs_residual(c, omega, consts, wt) < 1e-12


def test_waterwave_linearized_dispersion():
    """The 2x2 operator on a single mode (f_k, w_k) must have eigenvalues
    +- i sqrt(g k)."""
    consts = PhysicalConstants(rho1=0.0, rho2=1.0, g=1.0)
    n, k, eps = 64, 2, 1e-7
    a = periodic_grid(n)

    def column(fk, wk):
        c = graph_curve(np.real(fk * np.exp(1j * k * a) * 2))
        om = np.real(wk * np.exp(1j * k * a) * 2)
        u, wt = waterwave_rhs(c, om, consts)
        return (np.fft.fft(u[:, 1])[k] / n, np.fft.fft(wt)[k] / n)

    c1, c2 = column(eps, 0.0), column(0.0, eps)
    M = np.array([[c1[0], c2[0]], [c1[1], c2[1]]]) / eps
    eig = np.sort_complex(np.linalg.eigvals(M))
    target = np.sort_complex(np.array([-1j, 1j]) * np.sqrt(consts.g * k))
    assert np.max(np.abs(eig - target)) < 1e-5
