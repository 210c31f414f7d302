"""Fourier-side helpers for periodic grids.

All routines assume a uniform grid of N points covering one period,
alpha_i = period * i / N, and use numpy's FFT conventions (mode k lives
at index k for 0 <= k < N/2 and at N+k for k < 0).  The samples lie
along the last axis; fourier_derivative, apply_krasny and
discrete_h4_norm treat any leading axes as a stack of rows, each row
through the same operations as when it is given alone: numpy's pocketfft
applies one plan to every row, so a stack of derivatives is one call
whose rows are the single-row results bit for bit.  The wavenumbers and
the derivative multipliers are cached per grid size.  fourier_derivative,
apply_krasny and discrete_h4_norm transform in place (_fft, and ifft into
its input), with the bits of numpy's out-of-place transforms, and return
real arrays of their own: a stack holds one complex array at a time, and
none once they return.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def modes(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT order, read-only (one array per n)."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k.flags.writeable = False
    return k


def _fft(f) -> np.ndarray:
    """The FFT of real samples, computed in place in their complex copy:
    numpy's fft of a real array casts it to a complex copy of its own and
    writes the transform to a second one."""
    fk = np.asarray(f, dtype=float).astype(complex)
    return np.fft.fft(fk, out=fk)


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
    fk = _fft(f)
    n = fk.shape[-1]
    if isinstance(order, tuple):
        products = np.empty((len(order),) + fk.shape, dtype=complex)
        for out, o in zip(products, order):
            np.multiply(fk, _derivative_multiplier(n, o), out=out)
        fk = products
    else:
        fk *= _derivative_multiplier(n, order)
    return np.fft.ifft(fk, out=fk).real.copy()


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
    taken over each row (last axis), and return them.

    threshold = 0 is the identity.  Works in any mode ordering, in place
    on a complex array (apply_krasny's own transform), else on a complex
    copy of coeffs.
    """
    if threshold < 0:
        raise ValueError("filter threshold must be >= 0")
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    coeffs[mags < threshold * mags.max(axis=-1, keepdims=True)] = 0.0
    return coeffs


def apply_krasny(f, threshold):
    """Krasny filter applied to real periodic samples."""
    fk = krasny_filter(_fft(f), threshold)
    return np.fft.ifft(fk, out=fk).real.copy()


def discrete_h4_norm(field, period=2.0 * np.pi):
    """Discrete H^4 norm (L^2 + 4th derivative L^2) of periodic samples: a
    float, or one per row of a stack."""
    fk = _fft(field)
    n = fk.shape[-1]
    k = modes(n) * (2.0 * np.pi / period)
    fk /= n
    weights = 1.0 + k ** 8
    power = np.abs(fk)
    power *= power
    power *= weights
    norm = np.sqrt(period * np.sum(power, axis=-1))
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
