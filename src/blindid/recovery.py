"""Desk-scale solvers for the lifted least-squares problem and
identifiability certifiers.

The solvers minimize the frequency-domain residual over rank-1 matrices on
a fixed or enumerated support. The certifiers combine an exact sufficient
certificate (injectivity of the restricted linear operator) with a
multi-start heuristic search for counterexamples, which is explicitly
non-conclusive when it finds nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .ensembles import ConstraintScenario, Ensemble
from .lifting import LiftedMatrix, apply_A, apply_A_adjoint, as_matrix, operator_matrix

__all__ = [
    "RecoveryResult",
    "IdentifiabilityVerdict",
    "CERTIFIED_UNIQUE",
    "COUNTEREXAMPLE_FOUND",
    "HEURISTICALLY_UNIQUE",
    "admissible_supports",
    "solve_fixed_support",
    "solve_sparse_enumerate",
    "align_and_distance",
    "min_scaled_distance",
    "is_recovered",
    "certify_weak",
    "certify_strong",
    "verify_counterexample",
    "EnumerationCapError",
]

CERTIFIED_UNIQUE = "certified_unique"
COUNTEREXAMPLE_FOUND = "counterexample_found"
HEURISTICALLY_UNIQUE = "heuristically_unique"

# Recovery threshold: far below any transition signal, far above fp noise.
RECOVERY_RTOL = 1e-6
ALT_MIN_MAX_ITER = 500
ALT_MIN_RTOL = 1e-10
INJECTIVITY_TOL = 1e-8
# Largest support enumeration a solver or certifier attempts.
SUPPORT_CAP = 100_000


class EnumerationCapError(ValueError):
    """Support enumeration would exceed SUPPORT_CAP."""


@dataclass(frozen=True)
class RecoveryResult:
    M_hat: LiftedMatrix
    residual: float
    lifted_error: Optional[float] = None
    support: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    restarts_used: int = 0


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    status: str
    witness: Optional[LiftedMatrix]
    reference: Optional[LiftedMatrix]
    search_budget: int
    tolerance: float


def admissible_supports(sc: ConstraintScenario) -> list[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All admissible support pairs (S1, S2) in lexicographic order."""
    if sc.kind == "subspace":
        return [(tuple(range(sc.m1)), tuple(range(sc.m2)))]
    s2 = sc.m2 if sc.kind == "mixed" else sc.s2  # a mixed filter is 'm2-sparse'
    count = math.comb(sc.m1, sc.s1) * math.comb(sc.m2, s2)
    if count > SUPPORT_CAP:
        raise EnumerationCapError(
            f"{count} support pairs exceed the cap of {SUPPORT_CAP}; use a smaller instance")
    return list(itertools.product(itertools.combinations(range(sc.m1), sc.s1),
                                  itertools.combinations(range(sc.m2), s2)))


def _top_rank1(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factors (x, y) of the nearest rank-1 matrix x y^T."""
    U, s, Vh = np.linalg.svd(M)
    r = np.sqrt(s[0])
    return r * U[:, 0], r * Vh[0]


def _embed(v: np.ndarray, support: Sequence[int], m: int) -> np.ndarray:
    out = np.zeros(m, dtype=np.complex128)
    out[list(support)] = v
    return out


def _alt_min(aS: np.ndarray, bS: np.ndarray, z_tilde: np.ndarray,
             x0: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Alternating least squares over the factors on a fixed support.

    aS, bS are the conjugated frequency rows restricted to the support, so
    the model is (aS @ x) * (bS @ y) entrywise.
    """
    x = x0
    y = np.zeros(bS.shape[1], dtype=np.complex128)
    prev = np.inf
    residual = np.inf
    for _ in range(ALT_MIN_MAX_ITER):
        u = aS @ x
        y = np.linalg.lstsq(u[:, None] * bS, z_tilde, rcond=None)[0]
        v = bS @ y
        x = np.linalg.lstsq(v[:, None] * aS, z_tilde, rcond=None)[0]
        residual = float(np.linalg.norm((aS @ x) * (bS @ y) - z_tilde))
        if abs(prev - residual) <= ALT_MIN_RTOL * max(prev, 1e-300):
            break
        prev = residual
    return x, y, residual


def _random_factor(size: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def solve_fixed_support(ens: Ensemble, z_tilde: np.ndarray,
                        S1: Sequence[int], S2: Sequence[int],
                        restarts: int = 0,
                        rng: Optional[np.random.Generator] = None,
                        truth: Optional[LiftedMatrix] = None) -> RecoveryResult:
    """Minimize the frequency residual over rank-1 matrices supported on S1 x S2.

    When n >= |S1|*|S2| the unconstrained least-squares problem on the
    support is solved and projected to the nearest rank-1 matrix; otherwise
    alternating minimization runs from a spectral initialization plus
    `restarts` random initializations, keeping the best residual
    (first-found wins ties).
    """
    S1 = tuple(sorted(S1))
    S2 = tuple(sorted(S2))
    if not S1 or not S2:
        raise ValueError("support sets must be nonempty")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    z_tilde = np.asarray(z_tilde, dtype=np.complex128)
    sc = ens.scenario
    k = len(S1) * len(S2)
    aS = ens.a.conj()[:, list(S1)]
    bS = ens.b.conj()[:, list(S2)]

    if ens.n >= k:
        op = operator_matrix(ens, rows=S1, cols=S2)
        vec = np.linalg.lstsq(op, z_tilde, rcond=None)[0]
        Msub = vec.reshape((len(S1), len(S2)), order="F")
        xs, ys = _top_rank1(Msub)
        residual = float(np.linalg.norm((aS @ xs) * (bS @ ys) - z_tilde))
        restarts_used = 0
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        Madj = apply_A_adjoint(ens, z_tilde).M[np.ix_(list(S1), list(S2))]
        x_init, _ = _top_rank1(Madj)
        xs, ys, residual = _alt_min(aS, bS, z_tilde, x_init)
        restarts_used = 0
        for _ in range(restarts):
            xr = _random_factor(len(S1), rng)
            xc, yc, rc = _alt_min(aS, bS, z_tilde, xr)
            restarts_used += 1
            if rc < residual:
                xs, ys, residual = xc, yc, rc

    x_full = _embed(xs, S1, sc.m1)
    y_full = _embed(ys, S2, sc.m2)
    M_hat = LiftedMatrix.from_factors(x_full, y_full)
    err = None if truth is None else align_and_distance(M_hat, truth)
    return RecoveryResult(M_hat=M_hat, residual=residual, lifted_error=err,
                          support=(S1, S2), restarts_used=restarts_used)


def solve_sparse_enumerate(ens: Ensemble, z_tilde: np.ndarray,
                           restarts: int = 0,
                           rng: Optional[np.random.Generator] = None,
                           truth: Optional[LiftedMatrix] = None) -> RecoveryResult:
    """Enumerate all admissible supports and keep the smallest residual.

    A subspace scenario has the single full support, so this is then one
    solve_fixed_support call. Supports are visited in lexicographic order
    and only a strictly smaller residual replaces the incumbent, so ties
    resolve to the lexicographically smallest support.
    """
    best: Optional[RecoveryResult] = None
    for S1, S2 in admissible_supports(ens.scenario):
        res = solve_fixed_support(ens, z_tilde, S1, S2, restarts=restarts,
                                  rng=rng, truth=truth)
        if best is None or res.residual < best.residual:
            best = res
    assert best is not None
    return best


def align_and_distance(M1, M2) -> float:
    """Frobenius distance between lifted matrices.

    The scaling orbit of the factor pair maps to a single lifted matrix, so
    no alignment step is needed beyond lifting itself.
    """
    A = as_matrix(M1)
    B = as_matrix(M2)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B))


def min_scaled_distance(M, M0) -> float:
    """min over complex c of ||M - c*M0||_F (conservative orbit distance)."""
    A = as_matrix(M)
    B = as_matrix(M0)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    denom = np.vdot(B, B).real
    if denom == 0.0:
        return float(np.linalg.norm(A))
    c = np.vdot(B, A) / denom
    return float(np.linalg.norm(A - c * B))


def is_recovered(M_hat, M0) -> bool:
    """Success test used by the experiments."""
    return align_and_distance(M_hat, M0) <= RECOVERY_RTOL * max(
        1.0, float(np.linalg.norm(as_matrix(M0))))


def _support_of(M0: LiftedMatrix) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Supports of the factors of M0, which must have factors."""
    return (tuple(int(i) for i in np.flatnonzero(np.abs(M0.x) > 1e-14)),
            tuple(int(i) for i in np.flatnonzero(np.abs(M0.y) > 1e-14)))


def _injective_on(ens: Ensemble, rows: Sequence[int], cols: Sequence[int]) -> bool:
    k = len(rows) * len(cols)
    if ens.n < k:
        return False
    op = operator_matrix(ens, rows=rows, cols=cols)
    s = np.linalg.svd(op, compute_uv=False)
    return s.size >= k and float(s[-1]) > INJECTIVITY_TOL


def _union(a: Iterable[int], b: Iterable[int]) -> Tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


def _check_search(budget: int, tol: float) -> None:
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def certify_weak(ens: Ensemble, M0: LiftedMatrix, budget: int = 100, tol: float = 1e-6,
                 rng: Optional[np.random.Generator] = None) -> IdentifiabilityVerdict:
    """Decide uniqueness of the planted matrix among admissible solutions.

    Exact path: if the restricted operator is injective on the union of
    every admissible support with the planted support, uniqueness holds
    even without the rank constraint. Heuristic path: `budget` multi-start
    fits of the planted measurements; a far solution with a tiny residual
    is a counterexample, otherwise the verdict is only heuristic.
    """
    _check_search(budget, tol)
    sc = ens.scenario
    if M0.x is None or np.linalg.norm(M0.x) == 0 or np.linalg.norm(M0.y) == 0:
        raise ValueError("planted matrix must have nonzero rank-1 factors")
    if rng is None:
        rng = np.random.default_rng(0)

    S1_0, S2_0 = _support_of(M0)
    supports = admissible_supports(sc)
    if all(_injective_on(ens, _union(S1, S1_0), _union(S2, S2_0))
           for S1, S2 in supports):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)

    z0 = apply_A(ens, M0)
    for attempt in range(budget):
        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = _alt_min(aS, bS, z0, _random_factor(len(S1), rng))
        if residual <= tol:
            cand = LiftedMatrix.from_factors(_embed(x, S1, sc.m1), _embed(y, S2, sc.m2))
            if min_scaled_distance(cand, M0) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, cand, M0, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def certify_strong(ens: Ensemble, budget: int = 100, tol: float = 1e-6,
                   rng: Optional[np.random.Generator] = None) -> IdentifiabilityVerdict:
    """Decide uniqueness over the whole constraint set restricted to the unit ball.

    Exact path: injectivity of the restricted operator on every union of
    two admissible supports. Heuristic path: plant a random admissible
    unit-norm matrix, fit its measurements from a random start, and flag a
    far-apart pair with matching measurements as a counterexample.
    """
    _check_search(budget, tol)
    sc = ens.scenario
    if rng is None:
        rng = np.random.default_rng(0)

    supports = admissible_supports(sc)
    if all(_injective_on(ens, _union(S1a, S1b), _union(S2a, S2b))
           for (S1a, S2a), (S1b, S2b) in
           itertools.combinations_with_replacement(supports, 2)):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)

    for attempt in range(budget):
        S1p, S2p = supports[rng.integers(len(supports))]
        xp = _random_factor(len(S1p), rng)
        yp = _random_factor(len(S2p), rng)
        M1 = LiftedMatrix.from_factors(_embed(xp, S1p, sc.m1), _embed(yp, S2p, sc.m2))
        nrm = M1.frobenius_norm()
        if nrm == 0.0:
            continue
        M1 = LiftedMatrix.from_factors(M1.x / nrm, M1.y)
        z1 = apply_A(ens, M1)

        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = _alt_min(aS, bS, z1, _random_factor(len(S1), rng))
        M2 = LiftedMatrix.from_factors(_embed(x, S1, sc.m1), _embed(y, S2, sc.m2))
        # rescale the pair jointly so both land in the unit ball (cone property)
        c = 1.0 / max(1.0, M2.frobenius_norm())
        if residual * c <= tol:
            M1c = LiftedMatrix.from_factors(c * M1.x, M1.y)
            M2c = LiftedMatrix.from_factors(c * M2.x, M2.y)
            if align_and_distance(M1c, M2c) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, M2c, M1c, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def verify_counterexample(verdict: IdentifiabilityVerdict, ens: Ensemble) -> bool:
    """Machine-check the counterexample invariant on the stored witness."""
    if verdict.status != COUNTEREXAMPLE_FOUND:
        return False
    if verdict.witness is None or verdict.reference is None:
        return False
    residual = float(np.linalg.norm(apply_A(ens, verdict.witness)
                                    - apply_A(ens, verdict.reference)))
    far = min_scaled_distance(verdict.witness, verdict.reference) > 10 * verdict.tolerance
    return residual <= verdict.tolerance and far
