"""Circular convolution by the convolution theorem.

The package's one convolution: the time-domain measurements z = (Dx) ⊛ (Ey)
are computed here, with unitary FFTs (the forward kernel is
exp(-2*pi*i*j*k/n) / sqrt(n)) along the last axis, so a stack of vectors
is convolved slot by slot in O(n log n) each.
"""

from __future__ import annotations

import numpy as np

__all__ = ["circular_convolve"]


def circular_convolve(u, v) -> np.ndarray:
    """Circular convolution z[k] = sum_j u[j] * v[(k - j) mod n] along the
    last axis: one pair of length-n vectors, or stacks (..., n) of them.
    Each slot of a stack gets the bits of a call on it alone.
    """
    fu = np.fft.fft(u, norm="ortho")
    fv = np.fft.fft(v, norm="ortho")
    if fu.shape[-1] != fv.shape[-1]:
        raise ValueError(f"length mismatch: {fu.shape[-1]} vs {fv.shape[-1]}")
    # named operands: numpy reuses a large temporary right operand in place,
    # which swaps the factors of a complex product and can change its last bit
    return np.sqrt(fu.shape[-1]) * np.fft.ifft(fu * fv, norm="ortho")
