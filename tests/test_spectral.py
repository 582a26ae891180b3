import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindid.spectral import circular_convolve
from oracles import dft_matrix, direct_convolve


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
    out = dft_matrix(4) @ np.array([1.0, 0, 0, 0])
    assert np.allclose(out, 0.5 * np.ones(4), atol=1e-14)


def test_two_point_example():
    assert np.allclose(dft_matrix(2) @ np.array([1.0, 1.0]), [np.sqrt(2), 0], atol=1e-14)


def test_round_trip_and_unitarity():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 8, 17, 64):
        F = dft_matrix(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = F.conj().T @ (F @ v)
        assert np.linalg.norm(back - v) < 1e-12 * np.linalg.norm(v)
        assert abs(np.linalg.norm(F @ v) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


def test_matches_kernel_summation_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 16, 33):
        F = dft_matrix(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(F @ v - dft_oracle(v, "forward")) < 1e-10
        assert np.linalg.norm(F.conj().T @ v - dft_oracle(v, "inverse")) < 1e-10


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        circular_convolve(np.array([]), np.array([]))


def test_dft_matrix_is_unitary_and_consistent():
    # the oracle's convention is the package's: numpy's FFT with norm="ortho"
    for n in (1, 2, 7):
        F = dft_matrix(n)
        assert np.allclose(F @ F.conj().T, np.eye(n), atol=1e-12)
        v = np.arange(1.0, n + 1)
        assert np.allclose(F @ v, np.fft.fft(v, norm="ortho"), atol=1e-12)


def test_convolution_examples():
    assert np.allclose(circular_convolve([1, 2], [3, 4]), [11, 10], atol=1e-12)
    assert np.allclose(circular_convolve([1, 1, 1, 1], [1, 1, 1, 1]),
                       [4, 4, 4, 4], atol=1e-12)
    u, v = [1, 2j, -3, 0.5], [0.25, 1, 1j, 2]
    assert np.linalg.norm(circular_convolve(u, v) - direct_convolve(u, v)) < 1e-12
    assert np.allclose(circular_convolve([[1, 2], [0, 1]], [[3, 4], [5, 6]]),
                       [[11, 10], [6, 5]], atol=1e-12)


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
        assert np.linalg.norm(direct_convolve(u, v) - convolve_oracle(u, v)) < 1e-10


def test_convolution_length_mismatch():
    with pytest.raises(ValueError):
        circular_convolve([1, 2], [1, 2, 3])


def test_convolution_theorem_and_commutativity():
    # the FFT convolution against the theorem written with the dense DFT matrix
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        F = dft_matrix(n)
        lhs = circular_convolve(u, v)
        rhs = np.sqrt(n) * F.conj().T @ ((F @ u) * (F @ v))
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(scale, 1e-30)
        assert np.linalg.norm(lhs - circular_convolve(v, u)) < 1e-12 * max(scale, 1e-30)


@pytest.mark.parametrize("T,n", [(1, 1), (3, 7), (300, 64)])
def test_stack_slots_match_lone_calls_bit_for_bit(T, n):
    # 300 x 64 complex operands are 300 KiB, past the size from which numpy
    # reuses a temporary right operand in place
    rng = np.random.default_rng(T + n)
    U = rng.standard_normal((T, n)) + 1j * rng.standard_normal((T, n))
    V = rng.standard_normal((T, n)) + 1j * rng.standard_normal((T, n))
    Z = circular_convolve(U, V)
    assert Z.shape == (T, n)
    for t in range(T):
        assert np.array_equal(Z[t], circular_convolve(U[t], V[t]))
    for t in range(0, T, max(1, T // 5)):
        direct = direct_convolve(U[t], V[t])
        assert np.linalg.norm(Z[t] - direct) <= 1e-12 * np.linalg.norm(direct)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=32))
def test_unitarity_property(entries):
    v = np.array(entries, dtype=np.complex128)
    F = dft_matrix(v.size)
    assert abs(np.linalg.norm(F @ v) - np.linalg.norm(v)) <= 1e-9 * (1 + np.linalg.norm(v))
