"""Dense reference implementations that the package computes faster.

The package builds ensembles and measurements with FFTs; these O(n^2)
forms are kept only so tests can compare against them.
"""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    """The n x n unitary DFT matrix F with F[j, k] = exp(-2*pi*i*j*k/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(n)
    # reducing j*k mod n keeps the phase below 2*pi; the unreduced phase
    # reaches 2*pi*(n-1)^2/n and costs about 1e-13 relative at n = 1024
    return np.exp(-2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)
