"""Desk-scale solvers for the lifted least-squares problem and
identifiability certifiers.

The solvers minimize the frequency-domain residual over rank-1 matrices on
a fixed or enumerated support: by least squares and a rank-1 projection
when n >= |S1|*|S2|, one stacked Householder QR of [A | z] and one
stacked back substitution for every (trial, support) of a solve, with
np.linalg.lstsq refitting numerically rank-deficient slots one by one,
and otherwise by a batched Levenberg-Marquardt kernel
over the factors, which recovers down to the sample count d. Both
certifiers are one routine (_certify): an exact sufficient certificate
(injectivity of the restricted operator on support unions), then a
multi-start search for counterexamples, non-conclusive when it finds
nothing; a level supplies its unions, its draws and its ball radius. One
rule (_counterexamples) judges the fits and the verifier's witness:
measured alike within tol * sigma_max(A), and far apart.

A solve takes a RowStack, the trial stacks of one or more rows of a
sweep, and assembles their restricted frequency rows and measurements
once, for least squares and the kernel alike. The kernel runs on a stack
of slots, each with the arithmetic of a lone run: every (trial, support,
start) of a solve, or a chunk of certifier attempts; supports are (P, k)
index arrays throughout. A kernel solve zero-pads every trial's
frequency rows and measurements to the solve length k1*k2 - 1, which the
scenario alone fixes. Zero rows add nothing to the residual or to the
normal equations, so trials of different n share the stack, and a trial
computes on the same arrays in any stack. A solve runs its starts in
waves of 1, 2, 4, ...: the spectral start alone first, then more random
starts only for the trials that no slot has fit yet. Within a wave, all
of a trial's slots, on every support, stop together as soon as one of
them reaches the trial's residual floor, which is computed once, from
measurements without the padding. One trial is a stack of one.
Certifier attempts run in chunks of at most STACK_ENTRIES entries: the
first attempt alone, since far below the threshold almost every plant
has a partner, then the rest of the budget, so a search may draw from the
caller's rng past the attempt it returns; verdicts and budgets do not
change. No Python runs per attempt: a chunk's draws are one generator
call per block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .ensembles import ConstraintScenario, Ensemble, _complex_normal
from .lifting import (LiftedMatrix, _augmented, _times, apply_A, as_matrix,
                      operator_matrix, support_rows)

__all__ = [
    "RecoveryStack",
    "RowStack",
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
# Levenberg-Marquardt kernel (_lm): relative damping at the start, its
# floor and its cap, the residual floor relative to ||z|| (1e-13 ||z||),
# the relative-decrease and step-size stops and the step budget.
LM_LAMBDA_START = 1e-3
LM_LAMBDA_FLOOR = 1e-12
LM_LAMBDA_MAX = 1e12
LM_RESIDUAL_FLOOR = 1e-13
LM_RTOL = 1e-12
LM_STEP_RTOL = 1e-12
LM_MAX_ITER = 200
# Injectivity: the smallest singular value of a restricted operator above
# this times its largest.
INJECTIVITY_TOL = 1e-8
# Entries per stack (16 MiB of complex): P*n*k1*k2*starts per trial of a
# solve, n*k1*k2 per rectangle of an exact certificate's stacked SVD and
# n*(k1 + k2) + m1*m2 per certifier attempt. Slots are independent, so
# the bound changes no result.
STACK_ENTRIES = 1 << 20
# Largest support enumeration a solver or certifier attempts.
SUPPORT_CAP = 100_000


class EnumerationCapError(ValueError):
    """A support enumeration, or an exact certificate's unions, exceeds SUPPORT_CAP."""


@dataclass(frozen=True)
class RecoveryStack:
    """Solver results of T stacked trials: factors X (T, m1) and Y (T, m2),
    zero off each trial's support, residuals (T,), the support of each
    trial as index rows S1 (T, k1) and S2 (T, k2), and the most random
    starts any trial ran."""

    X: np.ndarray
    Y: np.ndarray
    residual: np.ndarray
    supports: Tuple[np.ndarray, np.ndarray]
    restarts_used: int = 0


@dataclass(frozen=True)
class RowStack:
    """Trial stacks of one scenario at one or more sample counts n, the rows
    of a sweep, as one stack for solve_fixed_support: its only input form.
    The rows share the solve length n (_solve_length), to which the solve
    zero-pads their frequency rows; scenario is theirs at that n."""

    ensembles: Tuple[Ensemble, ...]

    def __post_init__(self):
        if not self.ensembles:
            raise ValueError("a stack needs at least one row")
        sc = self.ensembles[0].scenario
        if any(e.scenario.with_n(sc.n) != sc or _solve_length(e.scenario) != _solve_length(sc)
               for e in self.ensembles[1:]):
            raise ValueError("the rows of a stack must be one scenario at sample counts "
                             "of one solve length")

    @property
    def scenario(self) -> ConstraintScenario:
        sc = self.ensembles[0].scenario
        return sc.with_n(_solve_length(sc))

    @property
    def n(self) -> int:
        return self.scenario.n


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    status: str
    witness: Optional[LiftedMatrix]
    reference: Optional[LiftedMatrix]
    search_budget: int
    tolerance: float


def _capped(count: int, what: str) -> int:
    if count > SUPPORT_CAP:
        raise EnumerationCapError(
            f"{count} {what} exceed the cap of {SUPPORT_CAP}; use a smaller instance")
    return count


def _pair_count(sc: ConstraintScenario) -> int:
    """P, the number of admissible support pairs; raises EnumerationCapError past SUPPORT_CAP."""
    return _capped(math.prod(map(math.comb, (sc.m1, sc.m2), sc.support_sizes)), "support pairs")


def admissible_supports(sc: ConstraintScenario) -> Tuple[np.ndarray, np.ndarray]:
    """All P admissible support pairs as index arrays S1 (P, k1) and S2
    (P, k2), pair p being (S1[p], S2[p]), in lexicographic order."""
    _pair_count(sc)
    C1, C2 = map(_largest_unions, (sc.m1, sc.m2), sc.support_sizes)
    return np.repeat(C1, len(C2), axis=0), np.tile(C2, (len(C1), 1))


def _top_rank1(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factors (x, y) of the nearest rank-1 matrix x y^T, of M or of each
    matrix of a stack."""
    U, s, Vh = np.linalg.svd(M)
    r = np.sqrt(s[..., :1])
    return r * U[..., :, 0], r * Vh[..., 0, :]


def _embed(v: np.ndarray, support, m: int) -> np.ndarray:
    """Zero-fill v (..., |support|) to length m at the indices of support,
    which has one index row per leading slot of v."""
    out = np.zeros(v.shape[:-1] + (m,), dtype=np.complex128)
    out[np.indices(v.shape[:-1] + (1,), sparse=True)[:-1] + (support,)] = v
    return out


def _lstsq(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Least squares on each restricted operator A of the frequency rows a
    (..., n, k1) and b (..., n, k2) (support_rows), A as _augmented builds
    it: np.linalg.lstsq(A, z[i], rcond=None)[0] for measurements z that
    broadcast to (..., n), n >= k = k1*k2.

    One stacked Householder QR of [A | z], built in one buffer and
    factored in place, and one stacked solve of R's leading k x k block
    against its last column (LU of an upper-triangular matrix pivots
    nowhere, so this is back substitution): one LAPACK call per slot each,
    so every slot gets the bits of its own call. A slot whose R has
    |r_ii| <= rcond * max_j |r_jj|, with lstsq's default rcond =
    eps * max(n, k), is numerically rank-deficient; it is refit on its own
    A and z by np.linalg.lstsq, one call per slot, so it gets lstsq's
    minimum-norm solution, and its LinAlgError, as they are.
    """
    Az = _augmented(a, b, z)
    n, k = Az.shape[-2], Az.shape[-1] - 1
    rcond = np.finfo(np.float64).eps * max(n, k)
    # in place: np.linalg.qr would copy [A | z] first
    _umath_linalg.qr_r_raw(Az, signature="D->D")
    R = np.triu(Az[..., :k, :])
    r = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    deficient = ~(r > rcond * r.max(-1, keepdims=True)).all(-1)  # NaN counts as deficient
    R[deficient, :, :k] = np.eye(k)  # keeps the stacked solve regular; refit below
    x = np.linalg.solve(R[..., :k], R[..., k:])[..., 0]
    if deficient.any():
        Az = _augmented(a[deficient], b[deficient],
                        np.broadcast_to(z, deficient.shape + (n,))[deficient])
        x[deficient] = [np.linalg.lstsq(A[:, :k], A[:, k], rcond=rcond)[0] for A in Az]
    return x


def _norm(r: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of r, bit for bit (the same dot products)."""
    return np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))


def _frobenius(M: np.ndarray):
    """np.linalg.norm of M (m1, m2), or of each matrix of a stack, bit for
    bit: a float, or an array of the stack's leading shape."""
    r = _norm(M.reshape(M.shape[:-2] + (-1,)))
    return float(r) if r.ndim == 0 else r


def _damped_solve(B: np.ndarray, w: np.ndarray, lam) -> np.ndarray:
    """Per slot, the s solving (B^H B + mu I) s = B^H w with the damping
    mu = lam * max diag(B^H B): the least-squares solution of B s = w,
    damped towards 0. mu is floored at the smallest normal float, so the
    system stays regular also where B = 0."""
    Bh = B.conj().swapaxes(1, 2)
    H = Bh @ B
    diag = np.arange(H.shape[-1])
    mu = np.maximum(lam * H[:, diag, diag].real.max(1), np.finfo(float).tiny)
    H[:, diag, diag] += mu[:, None]
    return np.linalg.solve(H, Bh @ w[:, :, None])[:, :, 0]


def _residual_floor(z: np.ndarray) -> np.ndarray:
    """LM_RESIDUAL_FLOOR * ||z|| per row of z (n entries, unpadded): the
    residual at which a fit counts as exact, relative to the measurements
    so that it does not move with their units."""
    return LM_RESIDUAL_FLOOR * _norm(z)


def _lm(aS: np.ndarray, bS: np.ndarray, z_tilde: np.ndarray, X0: np.ndarray,
        floor: np.ndarray, group: int = 1) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt over the factors on a fixed support, one slot
    per start.

    aS (S, n, k1) and bS (S, n, k2) are the conjugated frequency rows
    restricted to each slot's support, so the model is (aS @ x) * (bS @ y)
    entrywise; z_tilde (S, n) holds the measurements, X0 (S, k1) the
    starts and floor (S,) each slot's residual floor. The residual
    r = (aS x) * (bS y) - z is holomorphic in (x, y), with Jacobian
    J = [diag(bS y) aS, diag(aS x) bS]; each step solves
    (J^H J + lam max diag(J^H J) I) d = -J^H r with the slot's own lam,
    which an accepted step divides by 3 (down to LM_LAMBDA_FLOOR) and a
    rejected step multiplies by 4. An accepted step is rescaled so that
    ||x|| = ||y||, which fixes the scaling orbit (x, y) -> (cx, y/c), the
    null direction of J.

    The first y solves the linear problem in y at x = X0 (damped by
    LM_LAMBDA_FLOOR). When k1 or k2 is 1 the rank-1 constraint is void:
    the linear problem in y (then in x, when k2 = 1 < k1) is the fit, and
    no step runs. Where n < k1*k2, as on the solver's kernel rows, that
    problem has an exact fit for every z, which the damped solve misses by
    about 1e-12 ||z||, above the floor, so the solve is refined once on its
    residual, s += the damped solve of B d = z - B s, which fits to
    rounding. Fits at n >= k1*k2 are the certifiers', judged at a tolerance
    far above 1e-12, and take no refinement. Otherwise a slot stops when
    its relative decrease is at most LM_RTOL, its step ||d|| is at most
    LM_STEP_RTOL ||(x, y)||, lam exceeds LM_LAMBDA_MAX, or after
    LM_MAX_ITER steps. Slots come in groups of `group` consecutive slots,
    the slots of one trial, and a group stops as soon as one of its slots
    reaches its floor. The caller
    computes the floor once per trial, 1e-13 ||z|| of measurements that
    carry no padding (_residual_floor), so a solve's waves read the same
    floor.

    Every slot computes on contiguous copies of its own arrays, one slot
    per BLAS or LAPACK call, so its bits do not depend on the stack.
    Returns X (S, k1), Y (S, k2) and the residuals (S,).
    """
    a, b, z = (np.ascontiguousarray(arr, dtype=np.complex128) for arr in (aS, bS, z_tilde))
    k1, k2 = a.shape[-1], b.shape[-1]
    x = np.array(X0, dtype=np.complex128)
    B = _times(a, x)[:, :, None] * b
    y = _damped_solve(B, z, LM_LAMBDA_FLOOR)
    refine = z.shape[1] < k1 * k2  # a scalar-factor fit is exact for every z
    if k2 == 1 < k1:
        B = _times(b, y)[:, :, None] * a
        x = _damped_solve(B, z, LM_LAMBDA_FLOOR)
        if refine:
            x = x + _damped_solve(B, z - _times(B, x), LM_LAMBDA_FLOOR)
    elif k1 == 1 and refine:
        y = y + _damped_solve(B, z - _times(B, y), LM_LAMBDA_FLOOR)
    u, v = _times(a, x), _times(b, y)
    res = _norm(u * v - z)
    if min(k1, k2) == 1:
        return x, y, res

    X, Y, residual = x.copy(), y.copy(), res.copy()
    lam = np.full(len(x), LM_LAMBDA_START)
    exact = np.zeros(len(x) // group, dtype=bool)
    ids = np.arange(len(x))
    done = np.zeros(len(x), dtype=bool)
    for step in range(LM_MAX_ITER + 1):
        exact[ids[res <= floor[ids]] // group] = True
        stop = done | exact[ids // group] | (step == LM_MAX_ITER)
        if stop.any():
            X[ids[stop]], Y[ids[stop]], residual[ids[stop]] = x[stop], y[stop], res[stop]
            keep = ~stop
            ids, a, b, z, x, y, res, lam = (arr[keep] for arr in (ids, a, b, z, x, y, res, lam))
            if not ids.size:
                break
        u, v = _times(a, x), _times(b, y)
        r = u * v - z
        J = np.concatenate((v[:, :, None] * a, u[:, :, None] * b), axis=2)
        d = _damped_solve(J, r, lam)
        xt, yt = x - d[:, :k1], y - d[:, k1:]
        ut, vt = _times(a, xt), _times(b, yt)
        rt = _norm(ut * vt - z)
        accept = rt < res
        done = ((_norm(d) <= LM_STEP_RTOL * _norm(np.concatenate((x, y), axis=1)))
                | (accept & (res - rt <= LM_RTOL * res)))
        x = np.where(accept[:, None], xt, x)
        y = np.where(accept[:, None], yt, y)
        res = np.where(accept, rt, res)
        # rescale accepted slots so that ||x|| = ||y||
        nx, ny = _norm(x), _norm(y)
        c = np.sqrt(np.divide(ny, nx, out=np.ones_like(nx),
                              where=accept & (nx > 0) & (ny > 0)))
        x, y = x * c[:, None], y / c[:, None]
        lam = np.where(accept, np.maximum(lam / 3, LM_LAMBDA_FLOOR), 4 * lam)
        done |= lam > LM_LAMBDA_MAX
    return X, Y, residual


def _random_factors(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """count standard complex Gaussian vectors, drawn as count draws of the
    real then the imaginary part would draw them."""
    return _complex_normal(rng.standard_normal((count, 2, size)))


def _solve_length(sc: ConstraintScenario) -> int:
    """The length of a trial's frequency rows in a solve: n for least
    squares (n >= k1*k2), and on the kernel k1*k2 - 1, the largest n it
    takes, to which solve_fixed_support zero-pads them. Trials of one
    solve length can share a stack."""
    return max(sc.n, math.prod(sc.support_sizes) - 1)


def _trials_per_stack(sc: ConstraintScenario, restarts: int) -> int:
    """Trials per solve of at most STACK_ENTRIES entries (at least 1): P
    supports of k1 x k2 entries per row of the solve length, times a
    trial's starts, restarts + 1 on the kernel and 1 for least squares.
    The same for every kernel row of a sweep."""
    k = math.prod(sc.support_sizes)
    per_trial = _pair_count(sc) * k * _solve_length(sc) * (restarts + 1 if sc.n < k else 1)
    return max(1, STACK_ENTRIES // per_trial)


def solve_fixed_support(ens: RowStack, z_tilde, S1, S2, restarts: int,
                        rng: Sequence[np.random.Generator]) -> RecoveryStack:
    """Minimize the frequency residual over rank-1 matrices supported on
    one of P supports S1[p] x S2[p], for each trial of a stack.

    ens is a RowStack, the trial stacks of one or more rows of a sweep
    (build_ensemble with T seeds each), and z_tilde holds one measurement
    array (T, n) per row. rng holds one generator per trial, in row order,
    which the solve continues: recover_stack passes each trial's own, after
    its ensemble, plant and noise draws. S1 (P, k1) and S2 (P, k2) index P
    supports of one size. Every trial's
    restricted frequency rows and measurements are assembled once, in one
    (trial, support) stack, zero-padded to the solve length N: n for least
    squares, k1*k2 - 1 on the kernel. A zero row adds nothing to the
    residual, J^H J or J^H r, and the length depends on the scenario
    alone, so trials of different n share one stack and a trial has the
    same bits in any stack. When N >= k1*k2, every (trial, support) is a
    slot of one stacked least-squares solve (_lstsq: one QR and one back
    substitution, and np.linalg.lstsq for a rank-deficient slot),
    whose solutions are projected to the nearest rank-1 matrix; the
    residual reads the same rows. Otherwise every (trial, support, start)
    is a slot of the Levenberg-Marquardt kernel: per support a spectral
    start plus `restarts` random starts.
    The starts run in waves of 1, 2, 4, ... (the spectral start alone
    first), each wave one kernel run over the trials that no slot has fit
    yet. A trial stops once any of its slots reaches the residual floor
    1e-13 ||z|| of its unpadded measurements (_residual_floor): between
    waves, and within a wave, where its slots on every support form one
    group. rng[t] is read only when trial t reaches the first wave of
    random starts, which draws all of the trial's P * restarts starts in
    one call; a trial that no random start reaches leaves its generator
    untouched, and least squares reads none.
    Each trial keeps its first smallest residual among the slots that
    ran, support-major and then by start, so ties go to the first
    support. restarts_used is the most random starts any trial ran. Trial
    t has the bits of a solve of the stack of trial t alone.
    """
    sc = ens.scenario
    S1, S2 = (np.sort(S, axis=-1) for S in (S1, S2))
    for S, m in ((S1, sc.m1), (S2, sc.m2)):
        if S.ndim != 2 or len(S) != len(S1):
            raise ValueError(f"supports must be (P, k) index arrays of one P, got "
                             f"shapes {S1.shape} and {S2.shape}")
        if (not S.size or S.dtype.kind not in "iu" or S.min() < 0 or S.max() >= m
                or (S[:, 1:] == S[:, :-1]).any()):
            raise ValueError(f"supports {S.tolist()} must be nonempty distinct "
                             f"indices in 0..{m - 1}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    rows = [(e, np.asarray(z, dtype=np.complex128))
            for e, z in zip(ens.ensembles, z_tilde, strict=True)]
    for e, z in rows:
        if e.a.ndim != 3 or z.shape != (len(e.a), e.n):
            raise ValueError(f"expected a stack of T trials and measurements (T, {e.n})")
    N, T, P, k1, k2 = sc.n, sum(len(z) for _, z in rows), len(S1), S1.shape[1], S2.shape[1]
    if len(rng) != T:
        raise ValueError(f"expected one generator per trial, {T}, got {len(rng)}")

    # trial t holds rows t of aS, bS and z, zero-padded from its n to N;
    # each column of aS and bS is one contiguous run, as support_rows gives it
    aS = np.zeros((T, P, k1, N), dtype=np.complex128).swapaxes(-1, -2)
    bS = np.zeros((T, P, k2, N), dtype=np.complex128).swapaxes(-1, -2)
    z = np.zeros((T, N), dtype=np.complex128)
    end = 0
    for e, zr in rows:
        t, end = slice(end, end + len(zr)), end + len(zr)
        aS[t, :, :e.n], bS[t, :, :e.n] = support_rows(e, S1, S2)
        z[t, :e.n] = zr
    if N >= k1 * k2:  # least squares, one stacked call
        vec = _lstsq(aS, bS, z[:, None, :])
        # vec is column-major: entry k * k1 + m is M[m, k]
        x, y = _top_rank1(vec.reshape(T, P, k2, k1).swapaxes(-1, -2))
        residual = _norm(_times(aS, x) * _times(bS, y) - z[:, None, :])
        starts, restarts_used = 1, 0
    else:
        floor = np.concatenate([_residual_floor(zr) for _, zr in rows])
        aS, bS, z = aS.reshape(T * P, N, k1), bS.reshape(T * P, N, k2), np.repeat(z, P, axis=0)
        # the spectral start: the top rank-1 factor of the adjoint on the support
        adjoint = (aS.conj().swapaxes(1, 2) * z[:, None, :]) @ bS.conj()
        x_init, _ = _top_rank1(adjoint)
        starts = restarts + 1
        X0 = np.empty((T, P, starts, k1), dtype=np.complex128)
        X0[:, :, 0] = x_init.reshape(T, P, k1)
        x = np.zeros((T, P, starts, k1), dtype=np.complex128)
        y = np.zeros((T, P, starts, k2), dtype=np.complex128)
        residual = np.full((T, P, starts), np.inf)
        live = np.arange(T)
        for wave in _chunks(starts, 2, starts):
            if wave.start == 1:  # the first random starts: draw them for the live trials
                X0[live, :, 1:] = np.reshape([_random_factors(P * restarts, k1, rng[t])
                                              for t in live], (len(live), P, restarts, k1))
            # slot (l * P + p) * w + s is start wave[s] on support p of live trial l
            w, s = len(wave), slice(wave.start, wave.stop)
            slots = (live[:, None] * P + np.arange(P)).ravel()
            xw, yw, rw = _lm(np.repeat(aS[slots], w, axis=0), np.repeat(bS[slots], w, axis=0),
                             np.repeat(z[slots], w, axis=0),
                             X0[live, :, s].reshape(-1, k1), np.repeat(floor[live], P * w),
                             P * w)
            x[live, :, s] = xw.reshape(len(live), P, w, k1)
            y[live, :, s] = yw.reshape(len(live), P, w, k2)
            rw = rw.reshape(len(live), P, w)
            residual[live, :, s] = rw
            live = live[~(rw <= floor[live, None, None]).any((1, 2))]
            if not live.size:
                break
        restarts_used = wave.stop - 1  # the random starts of the last wave's trials

    # first of equals, support-major and then by start
    best = np.arange(T) * P * starts + residual.reshape(T, -1).argmin(1)
    p = best // starts % P
    x, y, residual = x.reshape(-1, k1)[best], y.reshape(-1, k2)[best], residual.ravel()[best]
    return RecoveryStack(_embed(x, S1[p], sc.m1), _embed(y, S2[p], sc.m2), residual,
                         (S1[p], S2[p]), restarts_used)


def solve_sparse_enumerate(ens: RowStack, z_tilde, restarts: int,
                           rng: Sequence[np.random.Generator]) -> RecoveryStack:
    """Solve over every admissible support and keep, per trial, the
    smallest residual: one solve_fixed_support call with the supports in
    lexicographic order, so ties resolve to the lexicographically smallest
    support. Takes a RowStack and returns its trials as solve_fixed_support
    does; a subspace scenario has the single full support.
    """
    S1, S2 = admissible_supports(ens.scenario)
    return solve_fixed_support(ens, z_tilde, S1, S2, restarts, rng)


def align_and_distance(M1, M2):
    """Frobenius distance between lifted matrices, or between each pair of
    two stacks (..., m1, m2) of them, one float per pair.

    The scaling orbit of the factor pair maps to a single lifted matrix, so
    no alignment step is needed beyond lifting itself.
    """
    A = as_matrix(M1)
    B = as_matrix(M2)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _frobenius(A - B)


def min_scaled_distance(M, M0):
    """min over complex c of ||M - c*M0||_F (conservative orbit distance; c = 0
    when M0 = 0): a float, or one per pair of two stacks (..., m1, m2)."""
    A = as_matrix(M)
    B = as_matrix(M0)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    a, b = (X.reshape(X.shape[:-2] + (math.prod(X.shape[-2:]),)) for X in (A, B))
    denom = np.vecdot(b, b).real
    c = np.vecdot(b, a) / np.where(denom == 0.0, 1.0, denom)
    r = _norm(a - c[..., None] * b)
    return float(r) if r.ndim == 0 else r


def _far(distance, tol: float):
    """The counterexample rule: an orbit distance above 10 * tol is far (per entry)."""
    return distance > 10 * tol


def is_recovered(M_hat, M0):
    """Success test used by the experiments: the distance from M_hat to M0
    is at most RECOVERY_RTOL * ||M0||, relative to the plant so that scaling
    both moves no verdict. One bool, or one per pair of two stacks
    (..., m1, m2) of lifted matrices."""
    ok = align_and_distance(M_hat, M0) <= RECOVERY_RTOL * _frobenius(as_matrix(M0))
    return bool(ok) if np.ndim(ok) == 0 else ok


def _support_of(M0: LiftedMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Supports of the factors of M0 as index arrays: the entries above
    1e-14 times their factor's largest magnitude, so every (cx, y/c) of the
    scaling orbit has the supports of (x, y)."""
    return tuple((a > 1e-14 * a.max(initial=0.0)).nonzero()[0]
                 for a in (np.abs(M0.x), np.abs(M0.y)))


def _largest_unions(m: int, k: int, within: np.ndarray = np.arange(0)) -> np.ndarray:
    """The largest unions of the index set `within` with a k-set of 0..m-1:
    every set of min(len(within) + k, m) indices that holds `within`, one row
    each, lexicographically. Raises EnumerationCapError past SUPPORT_CAP of them."""
    held = within.tolist()
    r = min(k, m - len(held))
    _capped(math.comb(m - len(held), r), "support unions")
    R = np.array(list(itertools.combinations([i for i in range(m) if i not in held], r)),
                 dtype=np.intp)
    return np.sort(np.column_stack((R, np.tile(within, (len(R), 1)))), axis=1) if held else R


def _injective_on(ens: Ensemble, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the restricted operator is injective on each rectangle of a
    row of rows (U1, k1) by one of cols (U2, k2), taken rows-major: whether
    its smallest singular value exceeds INJECTIVITY_TOL times its largest,
    a rule that scaling the ensemble does not move. Raises
    EnumerationCapError past SUPPORT_CAP rectangles. One stacked SVD (the
    LAPACK call of np.linalg.svd) per stack of at most STACK_ENTRIES
    operator entries or of one rectangle, up to the first stack that fails."""
    (U1, k1), (U2, k2) = rows.shape, cols.shape
    _capped(U1 * U2, "support unions")
    if ens.n < k1 * k2:
        return False
    per_stack = max(1, STACK_ENTRIES // (ens.n * k1 * k2))
    for start in range(0, U1 * U2, per_stack):
        i = np.arange(start, min(start + per_stack, U1 * U2))
        s = np.linalg.svd(operator_matrix(ens, rows=rows[i // U2], cols=cols[i % U2]),
                          compute_uv=False)
        if not np.all(s[:, -1] > INJECTIVITY_TOL * s[:, 0]):
            return False
    return True


def _check_search(budget: int, tol: float) -> None:
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    # unless the unit Frobenius ball's radius 1 counts as far, a verdict can
    # turn on the last bit of an orbit distance between matrices of the ball
    if not _far(1.0, tol):
        raise ValueError(f"tolerance must be below 0.1, so that the far threshold "
                         f"10 * tol stays below the unit-ball radius 1; got {tol}")


def _chunks(budget: int, growth: int, most: int) -> Iterable[range]:
    """Indices 0 .. budget-1 in chunks of 1, growth, growth**2, ..., at most `most` each."""
    start = 0
    while start < budget:
        stop = min(budget, growth * start + 1, start + most)
        yield range(start, stop)
        start = stop


def _attempts_per_chunk(sc: ConstraintScenario) -> int:
    """Certifier attempts per chunk of at most STACK_ENTRIES entries (at least 1)."""
    return max(1, STACK_ENTRIES // (sc.n * sum(sc.support_sizes) + sc.m1 * sc.m2))


def _sigma_max(ens: Ensemble) -> float:
    """sigma_max(A), the largest singular value of the frequency operator."""
    return float(np.linalg.svd(operator_matrix(ens), compute_uv=False)[0])


def _counterexamples(residual: np.ndarray, W, R, tol: float, unit: float) -> np.ndarray:
    """The counterexample rule on T pairs of witness W and reference R, each
    given by factors (X (T, m1), Y (T, m2)) and measured `residual` (T,)
    apart: the indices, in order, of the pairs measured alike (residual <=
    tol * unit, with unit = sigma_max(A), so that scaling the ensemble moves
    no verdict) whose orbit distance is far (_far), computed for those only."""
    fits = np.flatnonzero(residual <= tol * unit)
    W, R = ((X[fits, :, None] * Y[fits, None, :]) for X, Y in (W, R))
    return fits[_far(min_scaled_distance(W, R), tol)]


def _certify(ens: Ensemble, budget: int, tol: float, held, sizes, radius: float,
             draw) -> IdentifiabilityVerdict:
    """Both certifiers. Exact path: injectivity of the restricted operator on
    the largest unions, per side, of the index set `held` with `sizes`
    indices; dropping columns cannot lower the smallest singular value, so
    they decide every smaller union. Search: `budget` attempts in chunks,
    the first attempt alone and then the rest, each fitted and tested as one
    stack. draw(attempts, S1, S2) gives the planted factors (xp, yp) of the
    chunk's T attempts, a range of attempt indices, their measurements
    (T, n) and the starts (T, k1); attempt t fits support t mod P. At a
    finite `radius`, each pair is rescaled jointly into the Frobenius ball
    of that radius (the cone property); at radius inf the factor would be
    exactly 1, so none is taken. The first counterexample
    (_counterexamples) in attempt order is returned. sigma_max(A), the
    rule's unit, is taken on the first chunk, so budget 0 runs no SVD."""
    sc = ens.scenario
    _pair_count(sc)  # past SUPPORT_CAP, raise before any union is listed
    if _injective_on(ens, *map(_largest_unions, (sc.m1, sc.m2), sizes, held)):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)

    S1, S2 = admissible_supports(sc)
    for attempts in _chunks(budget, budget, _attempts_per_chunk(sc)):
        if attempts.start == 0:  # only a search that judges a fit needs sigma_max(A)
            unit = _sigma_max(ens)
        (xp, yp), z, starts = draw(attempts, S1, S2)
        rows, cols = (S[np.array(attempts) % len(S)] for S in (S1, S2))  # support t mod P
        X, Y, residual = _lm(*support_rows(ens, rows, cols), z, starts, _residual_floor(z))
        X, Y = _embed(X, rows, sc.m1), _embed(Y, cols, sc.m2)
        if radius < np.inf:
            c = 1.0 / np.maximum(1.0, _frobenius(X[:, :, None] * Y[:, None, :]) / radius)
            X, xp, residual = c[:, None] * X, c[:, None] * xp, residual * c
        far = _counterexamples(residual, (X, Y), (xp, yp), tol, unit)
        if far.size:
            t = far[0]
            return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, LiftedMatrix(X[t], Y[t]),
                                          LiftedMatrix(xp[t], yp[t]), attempts[t] + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def certify_weak(ens: Ensemble, M0: LiftedMatrix, *, budget: int, tol: float,
                 rng: np.random.Generator) -> IdentifiabilityVerdict:
    """Decide uniqueness of the planted matrix among admissible solutions.

    Exact path: injectivity on the union of every admissible support with
    the planted support S0 (unions of S0 with k1 and k2 indices). Search:
    fits of M0's measurements, taken once, from random starts, in no ball
    (radius inf); a far fit is a counterexample, none a heuristic verdict.
    """
    _check_search(budget, tol)
    sc = ens.scenario
    if np.linalg.norm(M0.x) == 0 or np.linalg.norm(M0.y) == 0:
        raise ValueError("planted matrix must have nonzero rank-1 factors")
    z0 = apply_A(ens, M0)

    def draw(attempts, S1, S2):
        T = len(attempts)
        return ((np.broadcast_to(M0.x, (T, sc.m1)), np.broadcast_to(M0.y, (T, sc.m2))),
                np.broadcast_to(z0, (T, ens.n)), _random_factors(T, S1.shape[1], rng))

    return _certify(ens, budget, tol, _support_of(M0), sc.support_sizes, np.inf, draw)


def certify_strong(ens: Ensemble, *, budget: int, tol: float,
                   rng: np.random.Generator) -> IdentifiabilityVerdict:
    """Decide uniqueness over the whole constraint set restricted to the unit ball.

    Exact path: injectivity on every union of two admissible supports
    (sets of 2k1 and 2k2 indices). Search: the first chunk draws every
    attempt's planted support, in one call of `budget` picks, and each
    chunk draws its plants and starts in one call of T rows, row t holding
    attempt t's x, y and start (each its real then imaginary parts), so an
    attempt draws the same values in any chunking; per chunk the plants
    are normalized to unit norm and measured as one stack, and each is
    fitted in the unit ball (radius 1).
    """
    _check_search(budget, tol)
    sc = ens.scenario
    k1, k2 = sc.support_sizes

    picks = None

    def draw(attempts, S1, S2):
        nonlocal picks
        if attempts.start == 0:
            picks = rng.integers(len(S1), size=budget)
        p, T = picks[attempts.start:attempts.stop], len(attempts)
        # row t: attempt t's x, y and start, each its real then imaginary parts
        x, y, starts = (_complex_normal(G.reshape(T, 2, -1)) for G in np.split(
            rng.standard_normal((T, 2 * (k1 + k2) + 2 * k1)), [2 * k1, 2 * (k1 + k2)], axis=1))
        xp, yp = _embed(x, S1[p], sc.m1), _embed(y, S2[p], sc.m2)
        xp /= _frobenius(xp[:, :, None] * yp[:, None, :])[:, None]
        return (xp, yp), apply_A(ens, xp[:, :, None] * yp[:, None, :]), starts

    empty = np.arange(0)
    return _certify(ens, budget, tol, (empty, empty), (2 * k1, 2 * k2), 1.0, draw)


def _admissible(sc: ConstraintScenario, M: LiftedMatrix) -> bool:
    """Whether M is a LiftedMatrix whose factor supports fit the constraint set."""
    return isinstance(M, LiftedMatrix) and all(
        len(S) <= k for S, k in zip(_support_of(M), sc.support_sizes))


def verify_counterexample(verdict: IdentifiabilityVerdict, ens: Ensemble) -> bool:
    """Machine-check the counterexample invariant on the stored witness:
    witness and reference are admissible, and the counterexample rule
    (_counterexamples) holds for them, at a tolerance the searches take."""
    W, R = verdict.witness, verdict.reference
    if (verdict.status != COUNTEREXAMPLE_FOUND or not _far(1.0, verdict.tolerance)
            or not (_admissible(ens.scenario, W) and _admissible(ens.scenario, R))):
        return False
    residual = np.linalg.norm(apply_A(ens, W) - apply_A(ens, R))
    return _counterexamples(np.array([residual]), (W.x[None], W.y[None]),
                            (R.x[None], R.y[None]), verdict.tolerance, _sigma_max(ens)).size == 1
