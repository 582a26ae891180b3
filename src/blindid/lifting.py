"""Lifted measurement operators and the mean-isometry normalization.

The time-domain operator maps the factors of a rank-1 lifted matrix
M = x y^T to the circular convolution of D x and E y. Its frequency
counterpart is linear in M, with entries a_j^* M conj(b_j), and equals
(1/sqrt(n)) F applied to the time-domain measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .ensembles import Ensemble

__all__ = [
    "LiftedMatrix",
    "apply_G",
    "apply_A",
    "support_rows",
    "operator_matrix",
    "mean_isometry_radius",
    "calibrated_isometry_radius",
]


@dataclass(frozen=True)
class LiftedMatrix:
    """The rank-1 lifted matrix M = x y^T, held by its factors x and y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            v = np.asarray(getattr(self, name), dtype=np.complex128)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise ValueError(f"factor {name} must be a 1-D vector of finite entries")
            object.__setattr__(self, name, v)

    @property
    def M(self) -> np.ndarray:
        return np.outer(self.x, self.y)


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


def _times(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v per slot: (..., n, k) stack times (..., k) vectors, (..., n)."""
    return (rows @ v[..., None])[..., 0]


def apply_G(ens: Ensemble, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Time-domain measurements (D x) circularly convolved with (E y).

    A lone ensemble takes factors x (m1,) and y (m2,), giving (n,); a stack
    of T trials takes X (T, m1) and Y (T, m2), giving (T, n). Each slot of a
    stack gets the bits of a call on its trial alone.
    """
    return spectral.circular_convolve(_times(ens.D, x), _times(ens.E, y))


def support_rows(ens: Ensemble, rows=None, cols=None):
    """Conjugated frequency rows (a_j^*, b_j^*) restricted to supports.

    rows (P, k1) and cols (P, k2) are index arrays of P supports on the
    last axis of a and b, one support per slot; None keeps every column.
    A lone ensemble gives (P, n, k1) and (P, n, k2), a stack of T trials
    (T, P, n, k1) and (T, P, n, k2).
    """
    return _restrict(ens.a.conj(), rows), _restrict(ens.b.conj(), cols)


def _restrict(rows_of: np.ndarray, idx) -> np.ndarray:
    if idx is None:
        return rows_of
    idx = np.asarray(idx)
    if idx.ndim != 2:
        raise ValueError(f"supports must be a (P, k) index array, got shape {idx.shape}")
    return rows_of[..., idx].swapaxes(-2, -3)


def operator_matrix(ens: Ensemble, rows=None, cols=None) -> np.ndarray:
    """Matrix of the frequency operator on column-major vectorized input.

    Row j holds the coefficients so that operator_matrix @ vec(M) equals
    apply_A(M), with vec(M) in column-major (Fortran) order. Optional
    (P, k) row and column index arrays restrict M to P supports, as in
    support_rows, and give one matrix per support; a stacked ensemble
    gives one matrix per trial (and support), stacked along the first axes.
    """
    a, b = support_rows(ens, rows, cols)
    # column index k * |rows| + m matches column-major vectorization
    op = b[..., :, :, None] * a[..., :, None, :]
    return op.reshape(op.shape[:-2] + (-1,))


def _augmented(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[A | z] for restricted frequency rows a (..., n, k1) and b (..., n, k2)
    and measurements z that broadcast to (..., n), A as operator_matrix
    builds it, in one buffer that holds each slot column-major, so LAPACK
    reads every column, z included, as one contiguous run."""
    lead, n, (k1, k2) = a.shape[:-2], a.shape[-2], (a.shape[-1], b.shape[-1])
    out = np.empty(lead + (k1 * k2 + 1, n), dtype=np.complex128)
    np.multiply(b.swapaxes(-1, -2)[..., :, None, :], a.swapaxes(-1, -2)[..., None, :, :],
                out=np.reshape(out[..., :-1, :], lead + (k2, k1, n), copy=False))
    out[..., -1, :] = z
    return out.swapaxes(-1, -2)


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
