"""Desk-scale solvers for the lifted least-squares problem and
identifiability certifiers.

The solvers minimize the frequency-domain residual over rank-1 matrices on
a fixed or enumerated support. The certifiers combine an exact sufficient
certificate (injectivity of the restricted linear operator) with a
multi-start heuristic search for counterexamples, which is explicitly
non-conclusive when it finds nothing.

Alternating minimization runs on a stack of slots (the starts of one
solve, or a chunk of certifier attempts), each with the arithmetic of a
lone run. Certifier attempts run in chunks of 1, 2, 4, ..., so a search
may draw from the caller's rng past the attempt it returns; verdicts and
budgets do not change. Per attempt only the rng draws run in Python; the
planted matrices, their measurements and the fits run once per chunk, on
the whole stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .ensembles import ConstraintScenario, Ensemble
from .lifting import (LiftedMatrix, apply_A, apply_A_adjoint, as_matrix, operator_matrix,
                      support_rows)

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
# Operator entries per stacked SVD of the exact certificates (16 MiB).
INJECTIVITY_STACK_ENTRIES = 1 << 20
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


def _embed(v: np.ndarray, support, m: int) -> np.ndarray:
    """Zero-fill v (..., |support|) to length m at the indices of support,
    which has one index row per leading slot of v."""
    out = np.zeros(v.shape[:-1] + (m,), dtype=np.complex128)
    np.put_along_axis(out, np.asarray(support), v, axis=-1)
    return out


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(A[t], b[t], rcond=None)[0] for every slot t at once.

    Calls the LAPACK gufunc that np.linalg.lstsq wraps, with its default
    rcond, so each slot gets the solution of its own call bit for bit.
    """
    rcond = np.finfo(np.float64).eps * max(A.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(A, b[..., None], rcond, signature="DDd->Ddid")[0]
    return x[..., 0]


def _norm(r: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of r, bit for bit (the same dot products)."""
    return np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))


def _alt_min(aS: np.ndarray, bS: np.ndarray, z_tilde: np.ndarray,
             X0: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating least squares over the factors on a fixed support, one
    slot per start.

    aS (T|1, n, k1) and bS (T|1, n, k2) are the conjugated frequency rows
    restricted to each slot's support, so the model is (aS @ x) * (bS @ y)
    entrywise; z_tilde (T|1, n) holds the measurements and X0 (T, k1) the
    starts. Each slot stops on its own test and does the arithmetic of a
    run on its own. Returns X (T, k1), Y (T, k2) and the residuals (T,).
    """
    T = X0.shape[0]
    X = np.array(X0, dtype=np.complex128)
    Y = np.zeros((T, bS.shape[-1]), dtype=np.complex128)
    prev = np.full(T, np.inf)
    residual = np.full(T, np.inf)
    live = np.arange(T)
    for _ in range(ALT_MIN_MAX_ITER):
        a, b, z = (arr if len(arr) == 1 else arr[live] for arr in (aS, bS, z_tilde))
        u = (a @ X[live, :, None])[..., 0]
        y = _lstsq(u[..., None] * b, z)
        v = (b @ y[..., None])[..., 0]
        x = _lstsq(v[..., None] * a, z)
        res = _norm((a @ x[..., None])[..., 0] * v - z)
        X[live], Y[live], residual[live] = x, y, res
        # prev starts at inf, so this test passes after the first sweep
        # (pinned by the strict xfail test_alt_min_converges_from_random_start)
        p = prev[live]
        prev[live] = res
        live = live[~(np.abs(p - res) <= ALT_MIN_RTOL * np.maximum(p, 1e-300))]
        if not live.size:
            break
    return X, Y, residual


def _complex_normal(g: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from real draws g (..., 2, size) that hold
    the real parts, then the imaginary parts."""
    return (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2)


def _random_factors(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """count standard complex Gaussian vectors, drawn as count draws of the
    real then the imaginary part would draw them."""
    return _complex_normal(rng.standard_normal((count, 2, size)))


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
    aS, bS = support_rows(ens, S1, S2)

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
        X0 = np.concatenate([x_init[None], _random_factors(restarts, len(S1), rng)])
        X, Y, res = _alt_min(aS[None], bS[None], z_tilde[None], X0)
        best = int(np.argmin(res))  # the first of equal residuals wins
        xs, ys, residual = X[best], Y[best], float(res[best])
        restarts_used = restarts

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


def _injective_on(ens: Ensemble, unions: Iterable[Tuple[Tuple[int, ...], Tuple[int, ...]]]) -> bool:
    """Whether the restricted operator is injective on every (rows, cols)
    support union.

    Unions of one shape are checked in stacks of at most
    INJECTIVITY_STACK_ENTRIES operator entries (or of one union), repeats
    dropped within a stack, one stacked SVD each, which makes the LAPACK
    call of np.linalg.svd on each matrix. The check stops at the first
    stack that fails.
    """
    pending: dict = {}
    for rows, cols in unions:
        shape = (len(rows), len(cols))
        if ens.n < shape[0] * shape[1]:
            return False
        stack = pending.setdefault(shape, {})
        stack[rows, cols] = None
        if len(stack) == max(1, INJECTIVITY_STACK_ENTRIES // (ens.n * shape[0] * shape[1])):
            if not _injective_stack(ens, pending.pop(shape)):
                return False
    return all(_injective_stack(ens, stack) for stack in pending.values())


def _injective_stack(ens: Ensemble, unions) -> bool:
    rows, cols = (np.array(idx) for idx in zip(*unions))
    s = np.linalg.svd(operator_matrix(ens, rows=rows, cols=cols), compute_uv=False)
    return bool(np.all(s[:, -1] > INJECTIVITY_TOL))


def _union(a: Iterable[int], b: Iterable[int]) -> Tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


def _check_search(budget: int, tol: float) -> None:
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def _slot_supports(supports, attempts) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays (T, s) of the supports the attempts fit;
    attempt t fits supports[t mod len(supports)]."""
    return tuple(np.array(idx) for idx in zip(*(supports[t % len(supports)] for t in attempts)))


def _chunks(budget: int) -> Iterable[range]:
    """Attempt indices 0 .. budget-1 in chunks of 1, 2, 4, ..."""
    start = 0
    while start < budget:
        stop = min(budget, 2 * start + 1)
        yield range(start, stop)
        start = stop


def certify_weak(ens: Ensemble, M0: LiftedMatrix, budget: int = 100, tol: float = 1e-6,
                 rng: Optional[np.random.Generator] = None) -> IdentifiabilityVerdict:
    """Decide uniqueness of the planted matrix among admissible solutions.

    Exact path: if the restricted operator is injective on the union of
    every admissible support with the planted support, uniqueness holds
    even without the rank constraint. Heuristic path: `budget` multi-start
    fits of the planted measurements; a far solution with a tiny residual
    is a counterexample, otherwise the verdict is only heuristic. Attempts
    run in chunks of 1, 2, 4, ..., so rng may be drawn past the attempt
    that finds a counterexample; the verdict does not change.
    """
    _check_search(budget, tol)
    sc = ens.scenario
    if M0.x is None or np.linalg.norm(M0.x) == 0 or np.linalg.norm(M0.y) == 0:
        raise ValueError("planted matrix must have nonzero rank-1 factors")
    if rng is None:
        rng = np.random.default_rng(0)

    S1_0, S2_0 = _support_of(M0)
    supports = admissible_supports(sc)
    if _injective_on(ens, ((_union(S1, S1_0), _union(S2, S2_0)) for S1, S2 in supports)):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)

    z0 = apply_A(ens, M0)
    for attempts in _chunks(budget):
        rows, cols = _slot_supports(supports, attempts)
        aS, bS = support_rows(ens, rows, cols)
        X, Y, residual = _alt_min(aS, bS, z0[None],
                                  _random_factors(len(attempts), rows.shape[1], rng))
        for t in np.flatnonzero(residual <= tol):
            cand = LiftedMatrix.from_factors(_embed(X[t], rows[t], sc.m1),
                                             _embed(Y[t], cols[t], sc.m2))
            if min_scaled_distance(cand, M0) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, cand, M0,
                                              attempts[t] + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def certify_strong(ens: Ensemble, budget: int = 100, tol: float = 1e-6,
                   rng: Optional[np.random.Generator] = None) -> IdentifiabilityVerdict:
    """Decide uniqueness over the whole constraint set restricted to the unit ball.

    Exact path: injectivity of the restricted operator on every union of
    two admissible supports. Heuristic path: plant a random admissible
    unit-norm matrix, fit its measurements from a random start, and flag a
    far-apart pair (orbit distance, as verify_counterexample measures it)
    with matching measurements as a counterexample.

    Per attempt, only the draws run: the planted support, its x then y
    factors (an attempt whose planted matrix is 0 draws no start and is
    skipped), then the start. Per chunk of 1, 2, 4, ... attempts, the
    planted matrices are normalized and measured as one stack by apply_A
    and fitted as one _alt_min stack. So rng may be drawn past the attempt
    that finds a counterexample; the verdict does not change.
    """
    _check_search(budget, tol)
    sc = ens.scenario
    if rng is None:
        rng = np.random.default_rng(0)

    supports = admissible_supports(sc)
    if _injective_on(ens, ((_union(S1a, S1b), _union(S2a, S2b))
                           for (S1a, S2a), (S1b, S2b) in
                           itertools.combinations_with_replacement(supports, 2))):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)

    k1, k2 = (len(S) for S in supports[0])  # every admissible support has these sizes
    for attempts in _chunks(budget):
        slots, picks, draws, starts = [], [], [], []
        for attempt in attempts:
            planted = rng.integers(len(supports))
            g = rng.standard_normal(2 * (k1 + k2))  # the planted x, then y
            # The planted matrix has norm 0 exactly when its x or its y draws
            # are all 0: nonzero normal draws exceed 1e-20 in magnitude, so no
            # product or square underflows, and a complex product of nonzero
            # factors cannot round to 0 in both its parts.
            if not (g[:2 * k1].any() and g[2 * k1:].any()):
                continue
            slots.append(attempt)
            picks.append(planted)
            draws.append(g)
            starts.append(rng.standard_normal(2 * k1))
        if not slots:
            continue
        T = len(slots)
        G = np.array(draws)
        prow, pcol = _slot_supports(supports, picks)
        xp = _embed(_complex_normal(G[:, :2 * k1].reshape(T, 2, k1)), prow, sc.m1)
        yp = _embed(_complex_normal(G[:, 2 * k1:].reshape(T, 2, k2)), pcol, sc.m2)
        xp /= _norm((xp[:, :, None] * yp[:, None, :]).reshape(T, -1))[:, None]
        z1 = apply_A(ens, xp[:, :, None] * yp[:, None, :])
        rows, cols = _slot_supports(supports, slots)
        aS, bS = support_rows(ens, rows, cols)
        X, Y, residual = _alt_min(aS, bS, z1, _complex_normal(np.array(starts).reshape(T, 2, k1)))
        X, Y = _embed(X, rows, sc.m1), _embed(Y, cols, sc.m2)
        # rescale each pair jointly so both land in the unit ball (cone property)
        c = 1.0 / np.maximum(1.0, _norm((X[:, :, None] * Y[:, None, :]).reshape(T, -1)))
        for t in np.flatnonzero(residual * c <= tol):
            ct = float(c[t])
            M1c = LiftedMatrix.from_factors(ct * xp[t], yp[t])
            M2c = LiftedMatrix.from_factors(ct * X[t], Y[t])
            if min_scaled_distance(M2c, M1c) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, M2c, M1c, slots[t] + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def _admissible(sc: ConstraintScenario, M: LiftedMatrix) -> bool:
    """Whether M has rank-1 factors whose supports fit the constraint set."""
    if M.x is None:
        return False
    S1, S2 = _support_of(M)
    return (len(S1) <= (sc.m1 if sc.kind == "subspace" else sc.s1)
            and len(S2) <= (sc.s2 if sc.kind == "sparsity" else sc.m2))


def verify_counterexample(verdict: IdentifiabilityVerdict, ens: Ensemble) -> bool:
    """Machine-check the counterexample invariant on the stored witness:
    witness and reference are admissible, measured alike and far apart."""
    if verdict.status != COUNTEREXAMPLE_FOUND:
        return False
    if verdict.witness is None or verdict.reference is None:
        return False
    if not (_admissible(ens.scenario, verdict.witness)
            and _admissible(ens.scenario, verdict.reference)):
        return False
    residual = float(np.linalg.norm(apply_A(ens, verdict.witness)
                                    - apply_A(ens, verdict.reference)))
    far = min_scaled_distance(verdict.witness, verdict.reference) > 10 * verdict.tolerance
    return residual <= verdict.tolerance and far
