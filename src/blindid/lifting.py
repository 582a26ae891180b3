"""Lifted measurement operators and the mean-isometry normalization.

The time-domain operator maps a lifted matrix M to the circular convolution
of D x and E y when M = x y^T, extended linearly to all M. Its frequency
counterpart has entries a_j^* M conj(b_j) and equals (1/sqrt(n)) F applied
to the time-domain measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .ensembles import Ensemble

__all__ = [
    "LiftedMatrix",
    "apply_G",
    "apply_A",
    "apply_A_adjoint",
    "support_rows",
    "operator_matrix",
    "mean_isometry_radius",
    "calibrated_isometry_radius",
]


@dataclass(frozen=True)
class LiftedMatrix:
    """A complex m1 x m2 matrix, optionally with rank-1 factors M = x y^T."""

    M: np.ndarray
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        M = np.asarray(self.M, dtype=np.complex128)
        object.__setattr__(self, "M", M)
        if M.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError("lifted matrix has non-finite entries")
        if (self.x is None) != (self.y is None):
            raise ValueError("factors must be given as a pair")
        if self.x is not None:
            x = np.asarray(self.x, dtype=np.complex128)
            y = np.asarray(self.y, dtype=np.complex128)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            outer = np.outer(x, y)
            scale = max(np.linalg.norm(M), 1e-300)
            if np.linalg.norm(M - outer) > 1e-12 * max(scale, 1.0):
                raise ValueError("factors do not reproduce the matrix")

    @classmethod
    def from_factors(cls, x, y) -> "LiftedMatrix":
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
        return cls(M=np.outer(x, y), x=x, y=y)


def as_matrix(M) -> np.ndarray:
    if isinstance(M, LiftedMatrix):
        return M.M
    return np.asarray(M, dtype=np.complex128)


def _check_shape(ens: Ensemble, M: np.ndarray):
    if M.shape[-2:] != (ens.scenario.m1, ens.scenario.m2) or M.ndim > 3:
        raise ValueError(
            f"matrix shape {M.shape} does not match ensemble "
            f"({ens.scenario.m1}, {ens.scenario.m2})"
        )


def apply_A(ens: Ensemble, M) -> np.ndarray:
    """Frequency-domain measurements, entry j = a_j^* M conj(b_j).

    M is one m1 x m2 matrix, giving (n,), or a stack (T, m1, m2), giving
    (T, n); each slot of a stack gets the bits of a call on it alone.
    """
    M = as_matrix(M)
    _check_shape(ens, M)
    # vecdot conjugates b and rounds every slot alike; the product form
    # ((...) * b.conj()).sum(-1) does not: at n = m2 = 1 a one-slot stack
    # takes another complex-multiply loop than a lone matrix
    return np.vecdot(ens.b, ens.a.conj() @ M)


def apply_G(ens: Ensemble, M) -> np.ndarray:
    """Time-domain measurements of the lifted matrix M.

    Rank-1 inputs with factors are (D x) convolved with (E y), computed by
    the convolution theorem in O(n log n); general matrices go through the
    frequency products, which agree by linearity.
    """
    if isinstance(M, LiftedMatrix) and M.x is not None:
        _check_shape(ens, M.M)
        u = spectral.dft(ens.D @ M.x)
        v = spectral.dft(ens.E @ M.y)
        return np.sqrt(ens.n) * spectral.dft(u * v, "inverse")
    vals = apply_A(ens, M)
    return np.sqrt(ens.n) * spectral.dft(vals, "inverse")


def apply_A_adjoint(ens: Ensemble, w) -> LiftedMatrix:
    """Adjoint of the frequency operator under <A, M> = trace(A^* M).

    Satisfies <apply_A(M), w> = <M, apply_A_adjoint(w)> for all M, with the
    vector inner product conjugate-linear in its first argument.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (ens.n,):
        raise ValueError(f"expected length-{ens.n} vector, got shape {w.shape}")
    M = np.einsum("j,jm,jk->mk", w, ens.a, ens.b, optimize=True)
    return LiftedMatrix(M=M)


def support_rows(ens: Ensemble, rows=None, cols=None):
    """Conjugated frequency rows (a_j^*, b_j^*) restricted to a support.

    rows and cols index the columns of a and b; None keeps every column.
    A 2-D index array of T supports gives stacks of shape (T, n, |rows|)
    and (T, n, |cols|) whose slots have the memory layout of a 1-D
    selection, so matrix products on a slot round as they do alone.
    """
    a = ens.a.conj()
    b = ens.b.conj()
    if rows is not None:
        a = a[:, np.asarray(rows)].swapaxes(0, -2)
    if cols is not None:
        b = b[:, np.asarray(cols)].swapaxes(0, -2)
    return a, b


def operator_matrix(ens: Ensemble, rows=None, cols=None) -> np.ndarray:
    """Matrix of the frequency operator on column-major vectorized input.

    Row j holds the coefficients so that operator_matrix @ vec(M) equals
    apply_A(M), with vec(M) in column-major (Fortran) order. Optional row
    and column index sets restrict M to a support; 2-D index arrays give
    one matrix per support, stacked along the first axis.
    """
    a, b = support_rows(ens, rows, cols)
    # column index k * |rows| + m matches column-major vectorization
    op = b[..., :, :, None] * a[..., :, None, :]
    return op.reshape(op.shape[:-2] + (-1,))


def mean_isometry_radius(n: int, m1: int, m2: int) -> float:
    """Ball radius ((m1+2)(m2+2)/n^2)^(1/4) from the printed second-moment
    constant m*R^2/(m+2).

    Note: exact uniform sampling on the complex radius-R ball has second
    moment m*R^2/(m+1), so the radius that makes the measurement operator an
    empirical mean isometry is calibrated_isometry_radius instead.
    """
    if n < 1 or m1 < 1 or m2 < 1:
        raise ValueError("all dimensions must be positive")
    return float(((m1 + 2) * (m2 + 2) / n**2) ** 0.25)


def calibrated_isometry_radius(n: int, m1: int, m2: int) -> float:
    """Ball radius ((m1+1)(m2+1)/n^2)^(1/4) for which the average of the
    normal operator over uniform-on-ball row draws converges to the identity.

    Uniform sampling on the radius-R ball in C^m (real dimension 2m) has
    E[norm^2] = 2m*R^2/(2m+2) = m*R^2/(m+1), which fixes this constant.
    """
    if n < 1 or m1 < 1 or m2 < 1:
        raise ValueError("all dimensions must be positive")
    return float(((m1 + 1) * (m2 + 1) / n**2) ** 0.25)
