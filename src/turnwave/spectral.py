"""Fourier-side helpers for periodic grids.

All routines assume a uniform grid of N points covering one period,
alpha_i = period * i / N, and use numpy's FFT conventions (mode k lives
at index k for 0 <= k < N/2 and at N+k for k < 0).  The samples lie
along the last axis; fourier_derivative, apply_krasny and
discrete_h4_norm treat any leading axes as a stack of rows, each row
through the same operations as when it is given alone: numpy's pocketfft
applies one plan to every row, so a stack of derivatives is one call
whose rows are the single-row results bit for bit.  The wavenumbers and
the derivative multipliers are cached per grid size.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def modes(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT order, read-only (one array per n)."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=16)
def _derivative_multiplier(n: int, order: int) -> np.ndarray:
    """(i k)^order on n samples of [0, 2 pi), read-only.  The Nyquist mode
    is zeroed for odd orders (its derivative is not representable on the
    grid)."""
    mult = (1j * modes(n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    mult.flags.writeable = False
    return mult


def fourier_derivative(f, order=1):
    """Spectral derivative of 2 pi-periodic samples, or of each row of a stack.
    A tuple of orders gives the stack of those derivatives, one per order,
    from one forward and one inverse transform."""
    f = np.asarray(f, dtype=float)
    fk = np.fft.fft(f)
    if isinstance(order, tuple):
        fk = np.stack([fk * _derivative_multiplier(f.shape[-1], o) for o in order])
    else:
        fk *= _derivative_multiplier(f.shape[-1], order)
    return np.fft.ifft(fk).real


def hilbert_transform(f):
    """Periodic Hilbert transform, symbol -i*sign(k).  The closed-form
    reference of acceptance criterion 1: the Birkhoff-Rott velocity on a
    flat interface is (0, hilbert_transform(omega) / 2)."""
    f = np.asarray(f, dtype=float)
    k = modes(f.size)
    fk = np.fft.fft(f)
    return np.fft.ifft(-1j * np.sign(k) * fk).real


def krasny_filter(coeffs, threshold):
    """Zero Fourier coefficients below threshold * max(|coeffs|), the max
    taken over each row (last axis).

    threshold = 0 is the identity.  Operates on (a copy of) a complex
    coefficient array in any mode ordering.
    """
    if threshold < 0:
        raise ValueError("filter threshold must be >= 0")
    coeffs = np.array(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    coeffs[mags < threshold * mags.max(axis=-1, keepdims=True)] = 0.0
    return coeffs


def apply_krasny(f, threshold):
    """Krasny filter applied to real periodic samples."""
    fk = krasny_filter(np.fft.fft(np.asarray(f, dtype=float)), threshold)
    return np.fft.ifft(fk).real


def discrete_h4_norm(field, period=2.0 * np.pi):
    """Discrete H^4 norm (L^2 + 4th derivative L^2) of periodic samples: a
    float, or one per row of a stack."""
    field = np.asarray(field, dtype=float)
    n = field.shape[-1]
    k = modes(n) * (2.0 * np.pi / period)
    fk = np.fft.fft(field) / n
    weights = 1.0 + k ** 8
    norm = np.sqrt(period * np.sum(weights * np.abs(fk) ** 2, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def antiderivative(f):
    """Zero-mean antiderivative of the zero-mean part of 2 pi-periodic f.

    The mean of f is dropped (a nonzero mean has no periodic
    antiderivative); the result has zero mean.
    """
    f = np.asarray(f, dtype=float)
    k = modes(f.size)
    fk = np.fft.fft(f)
    fk[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = fk / (1j * k)
    out[0] = 0.0
    return np.fft.ifft(out).real
