"""Unitary DFT and circular convolution.

All transforms use the unitary convention: the forward kernel is
exp(-2*pi*i*j*k/n) / sqrt(n), so forward and inverse are exact adjoints and
both preserve the l2 norm.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dft", "circular_convolve"]


def _as_complex_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("empty vector")
    return v


def dft(v, direction: str = "forward") -> np.ndarray:
    """Unitary DFT of a complex vector.

    direction="forward" applies the kernel exp(-2*pi*i*j*k/n)/sqrt(n);
    direction="inverse" applies its conjugate transpose. A forward/inverse
    round trip is the identity to numerical precision.
    """
    v = _as_complex_vector(v)
    if direction == "forward":
        return np.fft.fft(v, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(v, norm="ortho")
    raise ValueError(f"unknown direction {direction!r}")


def circular_convolve(u, v) -> np.ndarray:
    """Circular convolution z[k] = sum_j u[j] * v[(k - j) mod n].

    Computed as a direct matrix product (O(n^2)), independent of the DFT
    path, so the convolution theorem can be checked against it.
    """
    u = _as_complex_vector(u)
    v = _as_complex_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.size} vs {v.size}")
    k = np.arange(u.size)
    return v[np.subtract.outer(k, k) % u.size] @ u
