"""Reference implementations that the package computes faster.

The package draws each trial's Gaussian blocks in one generator call
and assembles them on the stack, builds ensembles and measurements with
FFTs, measures only rank-1 matrices in the time domain, draws, measures
and scores a transition row's trials as one stack, solves every
admissible support in one stack of the Levenberg-Marquardt kernel or of
least squares, runs its certifier attempts in chunks, each chunk one such
stack, checks its exact certificates on the largest support unions only,
and searches the deviations of many stability trials as one batch; the
O(n^2) dense forms (the DFT matrix, the circulant convolution and the
time-domain measurements of any matrix), the one-support-at-a-time solve,
the one-(trial, support)-at-a-time least squares, the
one-attempt-at-a-time loops with one SVD per support union, the
one-trial deviation search and the draws of one call per side and part
below are kept only so tests can compare against them.
"""

import itertools

import numpy as np

from blindid.ensembles import (COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL, REAL_GENERIC,
                               _real_ball_rows, sample_uniform_complex_ball_batch)
from blindid.lifting import LiftedMatrix, apply_A, operator_matrix, support_rows
from blindid.mc import _deviation_search, _draw_starts
from blindid.recovery import (CERTIFIED_UNIQUE, COUNTEREXAMPLE_FOUND, HEURISTICALLY_UNIQUE,
                              INJECTIVITY_TOL, IdentifiabilityVerdict, RecoveryStack, RowStack,
                              _check_search, _embed, _lm, _residual_floor, _support_of,
                              _top_rank1, admissible_supports, min_scaled_distance,
                              solve_fixed_support)


def dft_matrix(n: int) -> np.ndarray:
    """The n x n unitary DFT matrix F with F[j, k] = exp(-2*pi*i*j*k/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(n)
    # reducing j*k mod n keeps the phase below 2*pi; the unreduced phase
    # reaches 2*pi*(n-1)^2/n and costs about 1e-13 relative at n = 1024
    return np.exp(-2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)


def direct_convolve(u, v) -> np.ndarray:
    """Circular convolution z[k] = sum_j u[j] * v[(k - j) mod n] of two
    vectors as a dense circulant product, O(n^2), independent of the FFT."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    k = np.arange(u.size)
    return v[np.subtract.outer(k, k) % u.size] @ u


def time_measurements(ens, M) -> np.ndarray:
    """Time-domain measurements of any m1 x m2 matrix M on a lone ensemble,
    sum_il M[i, l] * (D[:, i] convolved with E[:, l]), computed densely:
    entry k is sum_jil D[j, i] M[i, l] E[(k - j) mod n, l]."""
    k = np.arange(ens.n)
    circulant = ens.E[np.subtract.outer(k, k) % ens.n]  # [k, j] -> E[(k - j) mod n]
    return np.einsum("ji,il,kjl->k", ens.D, np.asarray(M, dtype=np.complex128), circulant)


def ensemble_draws(sc, tag, R, rng):
    """One trial's ensemble draws from rng, each side in its own calls: D
    and E for the generic tags (complex: the real part, then the imaginary
    part), their frequency rows a and b for the ball tags."""
    n = sc.n

    def draw(m):
        if tag == COMPLEX_GENERIC:
            return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        if tag == REAL_GENERIC:
            return rng.standard_normal((n, m))
        if tag == COMPLEX_UNIFORM_BALL:
            return sample_uniform_complex_ball_batch(m, R, rng, n)
        return _real_ball_rows(n, m, R, rng)

    return draw(sc.m1), draw(sc.m2)


def plant_factors(sc, real, rng):
    """One trial's planted factors (x, y), not yet normalized, drawn side
    by side from rng: the real part (and then the imaginary part) of the
    side, then its support where the side is sparse."""
    def draw(m, k):
        if real:
            v = rng.standard_normal(m).astype(np.complex128)
        else:
            v = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        if k < m:
            keep = np.sort(rng.choice(m, size=k, replace=False))
            mask = np.zeros(m, dtype=bool)
            mask[keep] = True
            v = np.where(mask, v, 0.0)
        return v

    k1, k2 = sc.support_sizes
    x = draw(sc.m1, k1)
    return x, draw(sc.m2, k2)


def deviation_alone(ens, M0, delta, starts, rng):
    """The stability search of one trial alone: its starts drawn from rng,
    searched as a batch of one problem. Returns the largest feasible
    deviation from M0 within the delta measurement ball."""
    p0 = _draw_starts(M0.x, M0.y, delta, starts, rng)
    best, _ = _deviation_search(ens.a[None], ens.b[None], M0.x[None], M0.y[None],
                                [delta], p0[None])
    return float(best[0])


def fit(aS, bS, z_tilde, x0):
    """One start of the kernel on its own: aS (n, k1), bS (n, k2),
    z_tilde (n,), x0 (k1,)."""
    X, Y, residual = _lm(aS[None], bS[None], z_tilde[None], x0[None],
                         _residual_floor(z_tilde[None]))
    return X[0], Y[0], float(residual[0])


def solve_sparse_enumerate(ens, z_tilde, restarts, rng):
    """solve_sparse_enumerate with one solve_fixed_support call per support,
    in lexicographic order: a support's fit replaces a trial's incumbent
    only where its residual is strictly smaller. solve_sparse_enumerate
    stops a trial on every support once one support fits it, so the two
    agree where at most one support of a trial reaches the residual floor;
    restarts_used is that of the last support's call."""
    best = None
    for S1, S2 in zip(*admissible_supports(ens.scenario)):
        fit = solve_fixed_support(RowStack((ens,)), [z_tilde], S1[None], S2[None], restarts,
                                  rng)
        if best is not None:
            keep = ~(fit.residual < best.residual)
            fit = RecoveryStack(np.where(keep[:, None], best.X, fit.X),
                                np.where(keep[:, None], best.Y, fit.Y),
                                np.where(keep, best.residual, fit.residual),
                                tuple(np.where(keep[:, None], b, f) for b, f in
                                      zip(best.supports, fit.supports)),
                                fit.restarts_used)
        best = fit
    return best


def lstsq(A, b):
    """np.linalg.lstsq(A, b, rcond=None)[0] as the solver computes it: the
    Householder R of [A | b] by np.linalg.qr, then np.linalg.solve on its
    leading k x k block against its last column, unless some |r_ii| is at
    most eps * max(n, k) * max_j |r_jj|; then np.linalg.lstsq itself."""
    (n, k), R = A.shape, np.linalg.qr(np.column_stack((A, b)), mode="r")
    r = np.abs(np.diag(R))[:k]
    if np.all(r > np.finfo(float).eps * max(n, k) * r.max()):
        return np.linalg.solve(R[:k, :k], R[:k, k])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def least_squares_fits(ens, z_tilde, S1, S2):
    """The n >= k1*k2 path of solve_fixed_support one (trial, support) at a
    time: least squares on the restricted operator (lstsq above), the
    nearest rank-1 matrix of its solution and the residual by
    np.linalg.norm. ens is a stack of T trials, z_tilde (T, n), S1 (P, k1)
    and S2 (P, k2) sorted. Returns x (T, P, k1), y (T, P, k2) and the
    residuals (T, P)."""
    op = operator_matrix(ens, rows=S1, cols=S2)
    aS, bS = support_rows(ens, S1, S2)
    (T, P), k1, k2 = op.shape[:2], S1.shape[1], S2.shape[1]
    x = np.empty((T, P, k1), dtype=np.complex128)
    y = np.empty((T, P, k2), dtype=np.complex128)
    residual = np.empty((T, P))
    for t, p in np.ndindex(T, P):
        vec = lstsq(op[t, p], z_tilde[t])
        x[t, p], y[t, p] = _top_rank1(vec.reshape((k1, k2), order="F"))
        residual[t, p] = np.linalg.norm((aS[t, p] @ x[t, p]) * (bS[t, p] @ y[t, p])
                                        - z_tilde[t])
    return x, y, residual


def random_factor(size, rng):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def _union(a, b):
    return tuple(sorted(set(a) | set(b)))


def _injective_on(ens, rows, cols):
    k = len(rows) * len(cols)
    if ens.n < k:
        return False
    s = np.linalg.svd(operator_matrix(ens, rows=[rows], cols=[cols])[0], compute_uv=False)
    return s.size >= k and float(s[-1]) > INJECTIVITY_TOL * float(s[0])


def certify_weak(ens, M0, *, budget, tol, rng):
    """certify_weak with one SVD per support union (each union of an
    admissible support with the planted one, not only the largest) and one
    fit per attempt."""
    _check_search(budget, tol)
    sc = ens.scenario
    S1_0, S2_0 = _support_of(M0)
    supports = list(zip(*admissible_supports(sc)))
    if all(_injective_on(ens, _union(S1, S1_0), _union(S2, S2_0)) for S1, S2 in supports):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)
    z0 = apply_A(ens, M0)
    unit = np.linalg.svd(operator_matrix(ens), compute_uv=False)[0]  # sigma_max(A)
    for attempt in range(budget):
        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = fit(aS, bS, z0, random_factor(len(S1), rng))
        if residual <= tol * unit:
            cand = LiftedMatrix(_embed(x, S1, sc.m1), _embed(y, S2, sc.m2))
            if min_scaled_distance(cand, M0) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, cand, M0, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def certify_strong(ens, *, budget, tol, rng):
    """certify_strong with one SVD per union of two admissible supports
    (every one, not only the largest) and one fit per attempt: every
    attempt's planted support is drawn first, then per attempt its x, y
    and start."""
    _check_search(budget, tol)
    sc = ens.scenario
    supports = list(zip(*admissible_supports(sc)))
    if all(_injective_on(ens, _union(S1a, S1b), _union(S2a, S2b))
           for (S1a, S2a), (S1b, S2b) in itertools.combinations_with_replacement(supports, 2)):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)
    unit = np.linalg.svd(operator_matrix(ens), compute_uv=False)[0]  # sigma_max(A)
    picks = rng.integers(len(supports), size=budget)
    for attempt in range(budget):
        S1p, S2p = supports[picks[attempt]]
        xp = _embed(random_factor(len(S1p), rng), S1p, sc.m1)
        yp = _embed(random_factor(len(S2p), rng), S2p, sc.m2)
        # a zero plant is NaN from here on, and a NaN residual fits no tol
        xp = xp / np.linalg.norm(np.outer(xp, yp))
        z1 = apply_A(ens, np.outer(xp, yp))
        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = fit(aS, bS, z1, random_factor(len(S1), rng))
        x, y = _embed(x, S1, sc.m1), _embed(y, S2, sc.m2)
        c = 1.0 / max(1.0, np.linalg.norm(np.outer(x, y)))
        if residual * c <= tol * unit:
            M1c = LiftedMatrix(c * xp, yp)
            M2c = LiftedMatrix(c * x, y)
            if min_scaled_distance(M2c, M1c) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, M2c, M1c, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)
