"""Fourier helper oracles: exact multipliers on band-limited data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnwave.spectral import (_derivative_multiplier, antiderivative, apply_krasny,
                               fourier_derivative, hilbert_transform,
                               krasny_filter, modes)

GRID = 2.0 * np.pi * np.arange(128) / 128


def test_modes_layout():
    k = modes(8)
    assert list(k) == [0, 1, 2, 3, -4, -3, -2, -1]
    # one cached array per n, shared by every caller, so it is read-only
    assert modes(8) is k and not k.flags.writeable


def test_fourier_derivative_trig_polynomial():
    f = np.sin(3 * GRID) + 0.5 * np.cos(7 * GRID)
    exact = 3 * np.cos(3 * GRID) - 3.5 * np.sin(7 * GRID)
    assert np.max(np.abs(fourier_derivative(f) - exact)) < 1e-12


def test_fourier_derivative_second_order():
    f = np.cos(5 * GRID)
    assert np.max(np.abs(fourier_derivative(f, 2) + 25 * f)) < 1e-11


@pytest.mark.parametrize("n", [256, 512, 513, 1024])
def test_fourier_derivative_stack_rows_equal_single_rows(n):
    """A stack's derivative is one batched transform whose rows are the
    single-row derivatives bit for bit, for stacks of 2 and 2 x 3 rows,
    through one cached, read-only multiplier per (n, order)."""
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((2, 3, n))
    for order in (1, 2):
        for rows in (stack[:, 0], stack):
            got = fourier_derivative(rows, order)
            for row, f in zip(got.reshape(-1, n), rows.reshape(-1, n)):
                assert row.tobytes() == fourier_derivative(f, order).tobytes()
        mult = _derivative_multiplier(n, order)
        assert mult is _derivative_multiplier(n, order)
        assert not mult.flags.writeable


def test_hilbert_transform_oracle():
    # H(sin k a) = -cos k a with symbol -i sign(k)... check both parities
    for k in (1, 2, 5):
        assert np.max(np.abs(hilbert_transform(np.cos(k * GRID))
                             - np.sin(k * GRID))) < 1e-12
        assert np.max(np.abs(hilbert_transform(np.sin(k * GRID))
                             + np.cos(k * GRID))) < 1e-12


def test_hilbert_transform_kills_mean():
    assert np.max(np.abs(hilbert_transform(np.full(64, 3.7)))) < 1e-13


def test_krasny_filter_zeroes_small_modes():
    coeffs = np.array([1.0, 1e-14, 0.5, 1e-20], dtype=complex)
    out = krasny_filter(coeffs, 1e-10)
    assert out[1] == 0 and out[3] == 0
    assert out[0] == 1.0 and out[2] == 0.5


def test_krasny_filter_identity_at_zero_threshold():
    coeffs = np.array([1.0, 1e-30], dtype=complex)
    assert np.array_equal(krasny_filter(coeffs, 0.0), coeffs)


def test_krasny_filter_rejects_negative_threshold():
    with pytest.raises(ValueError):
        krasny_filter(np.ones(4, complex), -1e-3)


def test_apply_krasny_preserves_clean_signal():
    f = np.cos(3 * GRID)
    assert np.max(np.abs(apply_krasny(f, 1e-12) - f)) < 1e-13


def test_antiderivative_inverts_derivative():
    f = np.sin(2 * GRID) + 0.3 * np.cos(5 * GRID)
    back = fourier_derivative(antiderivative(f))
    assert np.max(np.abs(back - f)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.integers(min_value=1, max_value=6))
def test_fourier_derivative_linearity_and_mean(coeffs, k):
    a, b, c, d = coeffs
    f = a * np.cos(k * GRID) + b * np.sin(k * GRID) + c
    g = d * np.sin(GRID)
    lhs = fourier_derivative(f + g)
    rhs = fourier_derivative(f) + fourier_derivative(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert abs(np.mean(fourier_derivative(f))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_hilbert_transform_is_minus_identity_squared(k):
    f = np.sin(k * GRID) + 0.5 * np.cos((k + 3) * GRID)
    assert np.max(np.abs(hilbert_transform(hilbert_transform(f)) + f)) < 1e-11
