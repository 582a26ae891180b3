"""Reference implementations that the package computes faster.

The package builds ensembles and measurements with FFTs and runs
alternating minimization on stacks of slots; the O(n^2) dense forms and
the one-start-at-a-time loops below are kept only so tests can compare
against them.
"""

import itertools

import numpy as np

from blindid.lifting import LiftedMatrix, apply_A, operator_matrix
from blindid.recovery import (ALT_MIN_MAX_ITER, ALT_MIN_RTOL, CERTIFIED_UNIQUE,
                              COUNTEREXAMPLE_FOUND, HEURISTICALLY_UNIQUE,
                              INJECTIVITY_TOL, IdentifiabilityVerdict, _check_search,
                              _embed, _support_of, _union, admissible_supports,
                              min_scaled_distance)


def dft_matrix(n: int) -> np.ndarray:
    """The n x n unitary DFT matrix F with F[j, k] = exp(-2*pi*i*j*k/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(n)
    # reducing j*k mod n keeps the phase below 2*pi; the unreduced phase
    # reaches 2*pi*(n-1)^2/n and costs about 1e-13 relative at n = 1024
    return np.exp(-2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)


def alt_min(aS, bS, z_tilde, x0):
    """One start of alternating least squares, one np.linalg.lstsq call per
    half-sweep: aS (n, k1), bS (n, k2), z_tilde (n,), x0 (k1,)."""
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


def random_factor(size, rng):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def _injective_on(ens, rows, cols):
    k = len(rows) * len(cols)
    if ens.n < k:
        return False
    s = np.linalg.svd(operator_matrix(ens, rows=rows, cols=cols), compute_uv=False)
    return s.size >= k and float(s[-1]) > INJECTIVITY_TOL


def certify_weak(ens, M0, budget=100, tol=1e-6, rng=None):
    """certify_weak with one SVD per support union and one alt_min per attempt."""
    _check_search(budget, tol)
    sc = ens.scenario
    if rng is None:
        rng = np.random.default_rng(0)
    S1_0, S2_0 = _support_of(M0)
    supports = admissible_supports(sc)
    if all(_injective_on(ens, _union(S1, S1_0), _union(S2, S2_0)) for S1, S2 in supports):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)
    z0 = apply_A(ens, M0)
    for attempt in range(budget):
        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = alt_min(aS, bS, z0, random_factor(len(S1), rng))
        if residual <= tol:
            cand = LiftedMatrix.from_factors(_embed(x, S1, sc.m1), _embed(y, S2, sc.m2))
            if min_scaled_distance(cand, M0) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, cand, M0, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)


def certify_strong(ens, budget=100, tol=1e-6, rng=None):
    """certify_strong with one SVD per support union and one alt_min per attempt."""
    _check_search(budget, tol)
    sc = ens.scenario
    if rng is None:
        rng = np.random.default_rng(0)
    supports = admissible_supports(sc)
    if all(_injective_on(ens, _union(S1a, S1b), _union(S2a, S2b))
           for (S1a, S2a), (S1b, S2b) in itertools.combinations_with_replacement(supports, 2)):
        return IdentifiabilityVerdict(CERTIFIED_UNIQUE, None, None, 0, tol)
    for attempt in range(budget):
        S1p, S2p = supports[rng.integers(len(supports))]
        xp = random_factor(len(S1p), rng)
        yp = random_factor(len(S2p), rng)
        M1 = LiftedMatrix.from_factors(_embed(xp, S1p, sc.m1), _embed(yp, S2p, sc.m2))
        nrm = np.linalg.norm(M1.M)
        if nrm == 0.0:
            continue
        M1 = LiftedMatrix.from_factors(M1.x / nrm, M1.y)
        z1 = apply_A(ens, M1)
        S1, S2 = supports[attempt % len(supports)]
        aS = ens.a.conj()[:, list(S1)]
        bS = ens.b.conj()[:, list(S2)]
        x, y, residual = alt_min(aS, bS, z1, random_factor(len(S1), rng))
        M2 = LiftedMatrix.from_factors(_embed(x, S1, sc.m1), _embed(y, S2, sc.m2))
        c = 1.0 / max(1.0, np.linalg.norm(M2.M))
        if residual * c <= tol:
            M1c = LiftedMatrix.from_factors(c * M1.x, M1.y)
            M2c = LiftedMatrix.from_factors(c * M2.x, M2.y)
            if min_scaled_distance(M2c, M1c) > 10 * tol:
                return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, M2c, M1c, attempt + 1, tol)
    return IdentifiabilityVerdict(HEURISTICALLY_UNIQUE, None, None, budget, tol)
