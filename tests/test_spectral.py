import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindid.spectral import circular_convolve, dft
from oracles import dft_matrix


def dft_oracle(v, direction="forward"):
    """Direct kernel summation, independent of the FFT code path."""
    v = np.asarray(v, dtype=np.complex128)
    n = v.size
    sign = -1.0 if direction == "forward" else 1.0
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    K = np.exp(sign * 2j * np.pi * j * k / n) / np.sqrt(n)
    return K @ v


def convolve_oracle(u, v):
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    n = u.size
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            out[k] += u[j] * v[(k - j) % n]
    return out


def test_impulse_transforms_to_constant():
    out = dft(np.array([1.0, 0, 0, 0]))
    assert np.allclose(out, 0.5 * np.ones(4), atol=1e-14)


def test_two_point_example():
    assert np.allclose(dft(np.array([1.0, 1.0])), [np.sqrt(2), 0], atol=1e-14)


def test_round_trip_and_unitarity():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 8, 17, 64):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = dft(dft(v), "inverse")
        assert np.linalg.norm(back - v) < 1e-12 * np.linalg.norm(v)
        assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


def test_matches_kernel_summation_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 16, 33):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for direction in ("forward", "inverse"):
            assert np.linalg.norm(dft(v, direction) - dft_oracle(v, direction)) < 1e-10


def test_empty_vector_rejected():
    with pytest.raises(ValueError, match="empty vector"):
        dft(np.array([]))


def test_dft_matrix_is_unitary_and_consistent():
    for n in (1, 2, 7):
        F = dft_matrix(n)
        assert np.allclose(F @ F.conj().T, np.eye(n), atol=1e-12)
        v = np.arange(1.0, n + 1)
        assert np.allclose(F @ v, dft(v), atol=1e-12)


def test_convolution_examples():
    assert np.allclose(circular_convolve([1, 2], [3, 4]), [11, 10], atol=1e-12)
    assert np.allclose(circular_convolve([1, 1, 1, 1], [1, 1, 1, 1]),
                       [4, 4, 4, 4], atol=1e-12)


def test_convolution_identity_element():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    delta = np.zeros(6)
    delta[0] = 1.0
    assert np.allclose(circular_convolve(u, delta), u, atol=1e-12)


def test_convolution_matches_double_sum_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 9):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(circular_convolve(u, v) - convolve_oracle(u, v)) < 1e-10


def test_convolution_length_mismatch():
    with pytest.raises(ValueError):
        circular_convolve([1, 2], [1, 2, 3])


def test_convolution_theorem_and_commutativity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = circular_convolve(u, v)
        rhs = np.sqrt(n) * dft(dft(u) * dft(v), "inverse")
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(scale, 1e-30)
        assert np.linalg.norm(lhs - circular_convolve(v, u)) < 1e-12 * max(scale, 1e-30)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=32))
def test_unitarity_property(entries):
    v = np.array(entries, dtype=np.complex128)
    assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) <= 1e-9 * (1 + np.linalg.norm(v))
