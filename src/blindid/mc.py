"""Seeded Monte-Carlo engines: small-ball probability estimation,
phase-transition sweeps over the sample count, and stability sweeps over
the measurement perturbation budget.

The sweeps take every option as a required keyword argument and check
each input they read before their first draw. Every trial derives its own
64-bit seed from the sweep's seed argument via a documented splitmix64 mix
of (seed, row_index, trial_index), so results are reproducible
trial-by-trial. One trial kernel, recover_stack, serves the phase
transitions, the delta = 0 stability rows and the CLI's `recover`, which
runs the stack of the one seed s and so replays the sweep trial whose seed
is s, in every row: a sweep point is a plain ConstraintScenario at that n,
also below the sample count d. The kernel
takes trials as stacks from draw to score: only each trial's own
generator calls run per trial, one per block of draws, and the assembly,
the ensemble FFTs and the measurements run once per row of a stack, the
solve and the scoring once per stack; a trial builds its solver stream
only if it reads it. A stack may span the kernel rows of a sweep (n below
k1*k2 on supports of k1 x k2), whose solve is one Levenberg-Marquardt run
per wave with every (trial, support, solver start) a slot; a
least-squares row is one stacked least-squares call. Each trial gets the
bits of its replay alone.
Stability sweeps search their delta > 0 trials in flat batches, one drawn
stack and one batched L-BFGS run each, and each trial's result does not
depend on the batch it is solved in.
Each start of the batch runs its own line search, and one objective call
per round serves every running start. A round costs numpy dispatches, not
arithmetic, so the kernel makes few: its state covers running starts only,
holds only what a start cannot derive (no pair count: zero memory pairs
leave the two-loop recursion unchanged), and is compacted when a start
stops.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import Optional, Tuple

import numpy as np

from . import bounds
from .ensembles import (COMPLEX_UNIFORM_BALL, REAL_GENERIC, REAL_UNIFORM_BALL,
                        ConstraintScenario, Ensemble, _complex_normal, build_ensemble,
                        mix_seed, sample_uniform_complex_ball_batch)
from .lifting import LiftedMatrix, _times, apply_G, as_matrix, mean_isometry_radius
from .recovery import (RecoveryStack, RowStack, _norm, _solve_length, _trials_per_stack,
                       align_and_distance, is_recovered, solve_sparse_enumerate)

__all__ = [
    "TRANSITION_COLUMNS",
    "STABILITY_COLUMNS",
    "estimate_small_ball_prob",
    "mean_isometry_relative_error",
    "run_phase_transition",
    "run_stability_sweep",
    "trial_ensemble",
    "draw_trial",
    "recover_stack",
    "sweep_csv",
]

# The CSV columns of each sweep, in order. Sweep rows are dicts with these
# keys; a row may carry more keys, which the CSV does not print.
TRANSITION_COLUMNS = ("n", "trials", "successes", "rate", "d", "two_d",
                      "mean_lifted_error")
STABILITY_COLUMNS = ("delta", "trials", "violations", "violation_rate", "epsilon",
                     "bound_raw", "bound_clamped", "max_deviation",
                     "mean_lifted_error")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def sweep_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """CSV text of sweep rows: the header, then each row's values of
    `columns` in order (integers as integers, floats by repr)."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[col]) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


# Draws per batch of the two estimators below. Each batch consumes the
# generator in its own order, so these values are part of every result.
SMALL_BALL_BATCH = 20_000
ISOMETRY_BATCH = 2_000


def estimate_small_ball_prob(M, R: float, rho: float, trials: int,
                             rng: np.random.Generator) -> Tuple[float, float]:
    """Empirical frequency of |a^* M conj(b)| <= rho for a, b uniform on
    radius-R complex balls, with its binomial standard error."""
    M = as_matrix(M)
    if np.linalg.norm(M) == 0.0:
        raise ValueError("M must be nonzero")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m1, m2 = M.shape
    hits = 0
    done = 0
    while done < trials:
        size = min(SMALL_BALL_BATCH, trials - done)
        a = sample_uniform_complex_ball_batch(m1, R, rng, size)
        b = sample_uniform_complex_ball_batch(m2, R, rng, size)
        vals = np.einsum("tm,mk,tk->t", a.conj(), M, b.conj(), optimize=True)
        hits += int(np.count_nonzero(np.abs(vals) <= rho))
        done += size
    p_hat = hits / trials
    std_err = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
    return p_hat, std_err


def mean_isometry_relative_error(m1: int, m2: int, n: int, R: float,
                                 trials: int, seed: int) -> float:
    """Relative Frobenius error of the trial average of the normal operator
    applied to a fixed random test matrix, against the matrix itself."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
    M /= np.linalg.norm(M)
    acc = np.zeros((m1, m2), dtype=np.complex128)
    done = 0
    while done < trials:
        size = min(ISOMETRY_BATCH, trials - done)
        a = sample_uniform_complex_ball_batch(m1, R, rng, size * n).reshape(size, n, m1)
        b = sample_uniform_complex_ball_batch(m2, R, rng, size * n).reshape(size, n, m2)
        s = np.einsum("tjm,mk,tjk->tj", a.conj(), M, b.conj(), optimize=True)
        acc += n * np.einsum("tj,tjm,tjk->mk", s, a, b, optimize=True)
        done += size
    avg = acc / trials
    return float(np.linalg.norm(avg - M) / np.linalg.norm(M))


def ensemble_radius(tag: str, sc: ConstraintScenario,
                    R: Optional[float]) -> Optional[float]:
    """R for build_ensemble: user value if given, the mean-isometry default
    for ball tags, None for generic tags (which take no radius)."""
    if R is not None:
        return R
    if tag in (COMPLEX_UNIFORM_BALL, REAL_UNIFORM_BALL):
        return mean_isometry_radius(sc.n, sc.m1, sc.m2)
    return None


def trial_ensemble(sc: ConstraintScenario, tag: str, seeds: Sequence[int], *,
                   R: Optional[float]) -> Ensemble:
    """The stacked ensembles of the trials with seeds `seeds`: trial seed s
    builds the ensemble of seed mix_seed(s, 0), of radius
    ensemble_radius(tag, sc, R). This is the one rule from a trial seed to
    its ensemble, for every sweep trial and every CLI subcommand."""
    return build_ensemble(sc, tag, [mix_seed(seed, 0) for seed in seeds],
                          R=ensemble_radius(tag, sc, R))


def _plant_factors(sc: ConstraintScenario, real: bool,
                   rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
    """The factors X (T, m1) and Y (T, m2), not yet normalized, of a random
    admissible rank-1 matrix x y^T per plant stream. Per side, each stream
    draws one standard_normal block (for complex, the real then the
    imaginary parts) and then, where the side is sparse, its support; the
    complex assembly and the support masks run once on the stack."""
    sides = tuple(zip((sc.m1, sc.m2), sc.support_sizes))
    draws = [[(rng.standard_normal(m if real else 2 * m),
               rng.choice(m, size=k, replace=False) if k < m else None)
              for m, k in sides] for rng in rngs]
    factors = []
    for (m, k), side in zip(sides, zip(*draws)):
        g, keep = (np.array(arr) for arr in zip(*side))
        v = g.astype(np.complex128) if real else _complex_normal(g.reshape(-1, 2, m))
        if k < m:
            mask = np.zeros(v.shape, dtype=bool)
            mask[np.arange(len(v))[:, None], keep] = True
            v = np.where(mask, v, 0.0)
        factors.append(v)
    return tuple(factors)


class _Streams(Sequence):
    """Per trial t the generator of stream mix_seed(seeds[t], index), built
    on first access and then kept, so a trial that never reads its stream
    never builds it."""

    def __init__(self, seeds: Sequence[int], index: int):
        self._seeds, self._index, self._rngs = seeds, index, [None] * len(seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, t: int) -> np.random.Generator:
        if self._rngs[t] is None:
            self._rngs[t] = np.random.default_rng(mix_seed(self._seeds[t], self._index))
        return self._rngs[t]


def _draw_trials(sc: ConstraintScenario, tag: str, seeds: Sequence[int], *,
                 R: Optional[float]):
    """The trials with seeds `seeds` as one stack: the stacked ensemble, the
    factors X (T, m1) and Y (T, m2) of each trial's planted unit-norm
    admissible matrix, and each trial's open plant stream.

    Each stream is derived from the trial seed: mix_seed(seed, 0) builds the
    ensemble (trial_ensemble), mix_seed(seed, 1) plants (and then draws any
    noise), and mix_seed(seed, 2) drives the solver or the deviation search,
    whose caller builds it (_Streams). Only the draws run per trial, one
    generator call per block; the rest runs once on the stack. Returns
    (ens, X, Y, plant_rngs).
    """
    ens = trial_ensemble(sc, tag, seeds, R=R)
    plant_rngs = [np.random.default_rng(mix_seed(seed, 1)) for seed in seeds]
    X, Y = _plant_factors(sc, tag in (REAL_GENERIC, REAL_UNIFORM_BALL), plant_rngs)
    X = X / (_norm(X) * _norm(Y))[:, None]
    return ens, X, Y, plant_rngs


def draw_trial(sc: ConstraintScenario, tag: str, seed: int, *, R: Optional[float]
               ) -> Tuple[Ensemble, LiftedMatrix]:
    """The ensemble and the planted unit-norm admissible matrix of the trial
    with seed `seed`: _draw_trials with the one seed. Returns (ens, M0).
    """
    ens, X, Y, _ = _draw_trials(sc, tag, [seed], R=R)
    return ens.trial(0), LiftedMatrix(X[0], Y[0])


def _check_recovery(restarts: int, noise_level: float) -> None:
    if not noise_level >= 0:
        raise ValueError("noise_level must be nonnegative")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")


def recover_stack(scs: Sequence[ConstraintScenario], tag: str, seeds: Sequence[int], *,
                  R: Optional[float], restarts: int,
                  noise_level: float) -> Tuple[RecoveryStack, np.ndarray, np.ndarray]:
    """Plant, measure, solve and score the trials with seeds `seeds` as one
    stack. scs holds the ConstraintScenario of each trial: the rows of a
    sweep, one scenario at one or more n, as one RowStack. Each run of
    consecutive trials of one scenario is drawn and measured as one stack,
    and the solve takes every trial at once. Each trial draws from its own
    streams, so each gets the bits of its stack of one.

    The measurements are taken in the time domain, z = the circular
    convolution of Dx and Ey plus spherical noise of radius noise_level
    from the plant stream, and solved from z_tilde = F z / sqrt(n) over
    every admissible support.
    Returns the solver result, and per trial the lifted error against the
    planted matrix and whether the trial counts as recovered (is_recovered).
    """
    _check_recovery(restarts, noise_level)
    rows = []  # per run of one scenario: ensemble, measurements, planted factors
    for sc_r, run in itertools.groupby(zip(scs, seeds, strict=True), key=lambda pair: pair[0]):
        ens, X, Y, plant_rngs = _draw_trials(sc_r, tag, [s for _, s in run], R=R)
        z = apply_G(ens, X, Y)
        if noise_level > 0:
            g = np.array([rng.standard_normal(sc_r.n) + 1j * rng.standard_normal(sc_r.n)
                          for rng in plant_rngs])
            z = z + noise_level * g / _norm(g)[:, None]
        rows.append((ens, np.fft.fft(z, norm="ortho") / np.sqrt(sc_r.n), X, Y))
    ens, z_tilde, X, Y = zip(*rows)
    fit = solve_sparse_enumerate(RowStack(ens), z_tilde, restarts=restarts,
                                 rng=_Streams(seeds, 2))
    M_hat, M0 = (U[:, :, None] * V[:, None, :]
                 for U, V in ((fit.X, fit.Y), (np.concatenate(X), np.concatenate(Y))))
    return fit, align_and_distance(M_hat, M0), is_recovered(M_hat, M0)


def _recover_trials(scs: Sequence[ConstraintScenario], tag: str, seeds: Sequence[int], *,
                    R: Optional[float], restarts: int,
                    noise_level: float) -> Tuple[np.ndarray, np.ndarray]:
    """recover_stack on `seeds`, with scs as there, in flat stacks: the
    trials of one solve length (every kernel row of a sweep has the same
    one), in their order, in stacks of _trials_per_stack of them, which
    may span rows (flat memory in the number of trials); restarts must be
    >= 0. Returns per trial the lifted error and whether it counts as
    recovered."""
    errors, recovered = np.empty(len(seeds)), np.empty(len(seeds), dtype=bool)
    lengths = [_solve_length(sc_t) for sc_t in scs]
    order = sorted(range(len(seeds)), key=lengths.__getitem__)
    for _, group in itertools.groupby(order, key=lengths.__getitem__):
        group = list(group)
        size = _trials_per_stack(scs[group[0]], restarts)
        for start in range(0, len(group), size):
            idx = group[start:start + size]
            _, errors[idx], recovered[idx] = recover_stack(
                [scs[t] for t in idx], tag, [seeds[t] for t in idx], R=R, restarts=restarts,
                noise_level=noise_level)
    return errors, recovered


def run_phase_transition(sc: ConstraintScenario, tag: str, ns: Sequence[int], *,
                         trials: int, seed: int, restarts: int, noise_level: float,
                         R: Optional[float]) -> list[dict]:
    """Recovery success rate versus the sample count n, one row per n of
    `ns` with the keys of TRANSITION_COLUMNS.

    Trial i of row r is the recover_stack trial with seed
    mix_seed(seed, r, i): it plants a unit-norm admissible rank-1 matrix,
    measures it (optionally with spherical noise of l2 radius noise_level,
    so the measurement proximity is delta = 2 * noise_level), solves over
    every admissible support, and scores success by the recovery threshold.
    Each trial is drawn, measured and scored with its row, and solved with
    the trials of its solve length (_recover_trials): the kernel rows
    (n < k1*k2) share flat stacks of at most recovery.STACK_ENTRIES
    entries, so each solver wave is one kernel run over all of them, while
    a least-squares row is solved on its own. Each trial has the bits of
    its stack of one, which `recover --seed` runs. Every input, each n
    included, is checked before the first draw. Rows carry the thresholds
    d and 2d for annotation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_recovery(restarts, noise_level)
    scenarios = [sc.with_n(n) for n in ns]
    err, ok = _recover_trials([sc_n for sc_n in scenarios for _ in range(trials)], tag,
                              [mix_seed(seed, row_idx, i) for row_idx in range(len(ns))
                               for i in range(trials)],
                              R=R, restarts=restarts, noise_level=noise_level)
    rows = []
    for sc_n, row_err, row_ok in zip(scenarios, err.reshape(-1, trials),
                                     ok.reshape(-1, trials)):
        d = bounds.sample_complexity_d(sc_n)
        successes = int(row_ok.sum())
        rows.append({"n": sc_n.n, "trials": trials, "successes": successes,
                     "rate": successes / trials, "d": d, "two_d": 2 * d,
                     "mean_lifted_error": float(np.mean(row_err))})
    return rows


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag, y.real, y.imag], axis=-1)


def _unpack(p: np.ndarray, m1: int, m2: int) -> Tuple[np.ndarray, np.ndarray]:
    x = p[..., :m1] + 1j * p[..., m1:2 * m1]
    y = p[..., 2 * m1:2 * m1 + m2] + 1j * p[..., 2 * m1 + m2:]
    return x, y


def _sqnorm(z: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each slot of a C-contiguous complex stack."""
    zf = z.reshape(len(z), -1).view(float)
    return np.vecdot(zf, zf)


# Weight of the squared proximity and unit-ball penalties, and the L-BFGS
# iterations of each deviation-search start.
DEVIATION_MU = 1e4
DEVIATION_MAXITER = 200


def _deviation_objective(p, ac, bc, M0, t0, delta):
    """Penalized objective (values, gradients), one slot per row of p, for
    maximizing the Frobenius deviation from M0 subject to measurement
    proximity <= delta and the unit Frobenius ball. ac and bc hold the
    conjugated frequency rows of each slot's ensemble. Gradients are exact
    (Wirtinger calculus on the factors), with the deviation and norm terms
    fused: with M = x y^T, residual r = u v - t0 for u = ac x, v = bc y, and
    w, w2 the active penalty weights,
        g_x = ((w2 - 1) M + M0) conj(y) + w conj(ac^T (v conj(r))),
        g_y = ((w2 - 1) M + M0)^T conj(x) + w conj(bc^T (u conj(r))).

    Every product is a batched matrix product or a row-wise np.vecdot that
    runs within one slot, so a slot's arithmetic does not depend on the
    other slots of the batch.
    """
    m1, m2 = M0.shape[1:]
    x, y = _unpack(p, m1, m2)
    M = x[:, :, None] * y[:, None, :]
    u = _times(ac, x)
    v = _times(bc, y)
    r = u * v - t0
    # Complex products take named operands: numpy reuses a large temporary
    # right operand in place, which swaps the factors of a complex product
    # and can change its last bit, so results would depend on batch size.
    rc = r.conj()

    s = np.sqrt(_sqnorm(r))
    h = np.maximum(s - delta, 0.0)
    t = np.sqrt(_sqnorm(M))
    h2 = np.maximum(t - 1.0, 0.0)
    val = -_sqnorm(M - M0) + DEVIATION_MU * h * h + DEVIATION_MU * h2 * h2

    # penalty weights, zero where a penalty is inactive (h > 0 implies s > 0)
    w = (DEVIATION_MU * h / np.where(h > 0.0, s, 1.0))[:, None]
    w2 = DEVIATION_MU * h2 / np.where(h2 > 0.0, t, 1.0)
    N = (w2 - 1.0)[:, None, None] * M + M0
    vr, ur = v * rc, u * rc
    gx = _times(N, y.conj())
    gx += w * (vr[:, None, :] @ ac)[:, 0].conj()
    gy = (x.conj()[:, None, :] @ N)[:, 0]
    gy += w * (ur[:, None, :] @ bc)[:, 0].conj()
    return val, 2.0 * _pack(gx, gy)


# Batched L-BFGS with scipy's L-BFGS-B defaults for an unconstrained problem.
LBFGS_MEMORY = 10
LBFGS_PGTOL = 1e-5
LBFGS_FTOL = 1e7 * np.finfo(float).eps
LBFGS_MAXLS = 20
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
# Per-slot stop status, with scipy's codes.
CONVERGED, MAXITER, LINE_SEARCH_FAILED = 0, 1, 2
_RUNNING = -1


def _two_loop(g, S, Y, rho):
    """L-BFGS two-loop recursion, H g, per slot. Memory is memory-major,
    S and Y (LBFGS_MEMORY, slots, dim) and rho (LBFGS_MEMORY, slots), newest
    first, so each step reads one block; a slot's zero pairs past its
    filled ones leave the result unchanged."""
    q = g.copy()
    alpha = np.zeros((LBFGS_MEMORY, len(g), 1))
    for i in range(LBFGS_MEMORY):
        alpha[i, :, 0] = rho[i] * np.vecdot(S[i], q)
        q -= alpha[i] * Y[i]
    # initial Hessian scale s'y / y'y of the newest pair, 1 without memory
    r = q / np.where(rho[0] > 0.0, rho[0] * np.vecdot(Y[0], Y[0]), 1.0)[:, None]
    for i in reversed(range(LBFGS_MEMORY)):
        beta = rho[i] * np.vecdot(Y[i], r)
        r += (alpha[i] - beta[:, None]) * S[i]
    return r


def _lbfgs(fun, p, maxiter, *data):
    """Minimize each slot (row of p) independently with L-BFGS.

    fun(points, *data) returns values and gradients of the running slots
    at the given points, where data are arrays with one row per slot. Each
    slot runs its own weak-Wolfe line search by bracketing (doubling, then
    bisection), so one call of fun per round evaluates every running slot
    at its own trial point and no slot waits for another slot's line
    search. Stop tests follow scipy's L-BFGS-B: max |g| <= LBFGS_PGTOL or
    a relative reduction of f at most LBFGS_FTOL is CONVERGED, maxiter
    iterations is MAXITER, and LBFGS_MAXLS failed trials from steepest
    descent are LINE_SEARCH_FAILED (with memory, they first clear the
    memory and retry). The state, data included, is kept for running
    slots only and compacted when a slot stops. Returns the final points
    and the per-slot status.
    """
    B, dim = p.shape
    p_out = np.empty_like(p)
    status = np.full(B, _RUNNING)
    ids = np.arange(B)
    f, g = fun(p, *data)
    # per running slot: memory (newest first, rho[0] = 0 when empty), line
    # search direction d, slope gd, trial step alpha in the bracket [lo, hi],
    # failed trials so far (0 when it needs a direction) and its stop code
    S = np.zeros((LBFGS_MEMORY, B, dim))
    Y = np.zeros((LBFGS_MEMORY, B, dim))
    rho = np.zeros((LBFGS_MEMORY, B))
    nit = np.zeros(B, dtype=int)
    d = np.zeros((B, dim))
    gd, alpha, lo, hi = np.zeros((4, B))
    tries = np.zeros(B, dtype=int)
    code = np.where(np.abs(g).max(1) <= LBFGS_PGTOL, CONVERGED, _RUNNING)

    def clear_memory(slots):
        S[:, slots], Y[:, slots], rho[:, slots] = 0.0, 0.0, 0.0

    while True:
        stopped = code != _RUNNING
        if stopped.any():
            status[ids[stopped]] = code[stopped]
            p_out[ids[stopped]] = p[stopped]
            run = ~stopped
            if not run.any():
                break
            ids, p, f, g, d, gd, alpha, lo, hi, tries, nit, code, *data = (
                arr[run] for arr in (ids, p, f, g, d, gd, alpha, lo, hi, tries, nit, code,
                                     *data))
            S, Y, rho = S[:, run], Y[:, run], rho[:, run]
        need = tries == 0
        if need.any():
            dn = -_two_loop(g, S, Y, rho)
            gdn = (g * dn).sum(1)
            # not a descent direction: clear the memory, use steepest descent
            bad = need & ~(gdn < 0.0)
            if bad.any():
                clear_memory(bad)
                dn[bad] = -g[bad]
                gdn[bad] = (g[bad] * dn[bad]).sum(1)
            dn, gdn = dn[need], gdn[need]
            # the first trial step is 1 / ||d|| without memory, else 1
            alpha[need] = np.where(rho[0, need] == 0.0, 1.0 / np.sqrt((dn * dn).sum(1)), 1.0)
            d[need], gd[need], lo[need], hi[need] = dn, gdn, 0.0, np.inf
        a = alpha
        pt = p + a[:, None] * d
        ft, gt = fun(pt, *data)
        sufficient = ft <= f + WOLFE_C1 * a * gd
        curved = (gt * d).sum(1) >= WOLFE_C2 * gd
        done = sufficient & curved
        hi = np.where(sufficient, hi, a)
        lo = np.where(sufficient & ~curved, a, lo)
        alpha = np.where(np.isinf(hi), 2.0 * a, 0.5 * (lo + hi))
        tries += 1

        # out of trials: fail from steepest descent (memory still empty),
        # else clear the memory and retry with a new direction
        stop = ~done & (tries >= LBFGS_MAXLS)
        if stop.any():
            code[stop & (rho[0] == 0.0)] = LINE_SEARCH_FAILED
            clear_memory(stop)

        s = pt - p
        yv = gt - g
        sy = (s * yv).sum(1)
        push = done & (sy > np.finfo(float).eps * -(g * s).sum(1))
        S[1:, push], Y[1:, push], rho[1:, push] = S[:-1, push], Y[:-1, push], rho[:-1, push]
        S[0, push], Y[0, push], rho[0, push] = s[push], yv[push], 1.0 / sy[push]

        f_old = f
        p = np.where(done[:, None], pt, p)
        f = np.where(done, ft, f)
        g = np.where(done[:, None], gt, g)
        nit += done
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f)), 1.0)
        conv = done & ((f_old - f <= LBFGS_FTOL * scale)
                       | (np.abs(g).max(1) <= LBFGS_PGTOL))
        code[conv] = CONVERGED
        code[done & ~conv & (nit >= maxiter)] = MAXITER
        tries[done | stop] = 0
    return p_out, status


def _feasible_scan(ac, bc, M0, t0, x0, y0, x, y, delta) -> np.ndarray:
    """Largest feasible deviation along each slot's factor segment from
    (x0, y0) to (x, y): proximity <= delta and Frobenius norm <= 1, with
    tiny slack. Loops over the 65 grid points so memory stays O(slots)."""
    best = np.zeros(len(delta))
    for t in np.linspace(0.0, 1.0, 65):
        xt = x0 + t * (x - x0)
        yt = y0 + t * (y - y0)
        Mt = xt[:, :, None] * yt[:, None, :]
        r = _times(ac, xt) * _times(bc, yt) - t0
        feasible = ((np.sqrt(_sqnorm(Mt)) <= 1.0 + 1e-9)
                    & (np.sqrt(_sqnorm(r)) <= delta * (1.0 + 1e-9)))
        dev = np.sqrt(_sqnorm(Mt - M0))
        best = np.where(feasible, np.maximum(best, dev), best)
    return best


def _draw_starts(x0, y0, delta: float, starts: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Packed start points, (starts, 2(m1+m2)), from one draw of the
    trial's search stream: a perturbation of the planted factors, then
    unit-norm random factors."""
    m1, m2 = x0.size, y0.size
    xs, ys = _unpack(rng.standard_normal((starts, 2 * (m1 + m2))), m1, m2)
    scale = 0.1 + 0.5 * delta
    xs[0], ys[0] = x0 + scale * xs[0], y0 + scale * ys[0]
    xs[1:] /= np.sqrt(2)
    ys[1:] /= np.sqrt(2)
    xs[1:] /= (_norm(xs[1:]) * _norm(ys[1:]))[:, None]
    return _pack(xs, ys)


def _deviation_search(a, b, x0, y0, delta, p0):
    """Batched multi-start deviation search over T problems with S starts.

    a (T, n, m1) and b (T, n, m2) are the frequency rows, (x0, y0) the
    planted factors, delta (T,) the budgets and p0 (T, S, 2(m1+m2)) the
    packed starts. Every start is one L-BFGS slot on the penalized
    objective; its end point is repaired by the feasible-segment scan.
    Returns the largest feasible deviation per problem, (T,), and the stop
    status per start, (T, S).
    """
    T, S = p0.shape[:2]
    ac, bc, x0, y0 = (np.repeat(arr, S, axis=0) for arr in (a.conj(), b.conj(), x0, y0))
    delta = np.repeat(np.asarray(delta, dtype=float), S)
    M0 = x0[:, :, None] * y0[:, None, :]
    t0 = _times(ac, x0) * _times(bc, y0)
    with np.errstate(over="ignore", invalid="ignore"):
        p, status = _lbfgs(_deviation_objective, p0.reshape(T * S, -1), DEVIATION_MAXITER,
                           ac, bc, M0, t0, delta)
    x, y = _unpack(p, x0.shape[1], y0.shape[1])
    best = _feasible_scan(ac, bc, M0, t0, x0, y0, x, y, delta)
    return best.reshape(T, S).max(1), status.reshape(T, S)


# Starts searched per batch. Slots are independent, so the cap changes no
# result; it keeps a sweep's memory flat in the number of trials.
SEARCH_BATCH_SLOTS = 2048


def run_stability_sweep(sc: ConstraintScenario, deltas: Sequence[float], *,
                        trials: int, seed: int, restarts: int, R: Optional[float],
                        mode: str, starts: int) -> list[dict]:
    """Observed worst-case deviation versus the measurement budget delta,
    one row per delta of `deltas` with the keys of STABILITY_COLUMNS.

    Per delta and trial: draw a complex uniform-ball ensemble, plant a
    unit-norm matrix, search for the largest feasible deviation from
    `starts` starts, and record whether it violates the reconstruction
    level of the `mode` bound. delta = 0 degenerates to a noiseless
    uniqueness check with `restarts` solver restarts. Every input is
    checked, and every level and bound computed, before the first draw, so
    a sweep outside a bound's range draws nothing. The search runs over
    dense factors, so it takes subspace scenarios (full supports) only.
    The delta > 0 trials, listed in row order, are searched in flat batches
    of the fewest trials whose starts reach SEARCH_BATCH_SLOTS; a batch may
    span rows, is drawn as one stack and searched by one run, and a trial's
    result does not depend on its batch. delta > 0 rows also carry
    search_status: how many starts converged, hit the iteration cap, and
    failed their line search.
    """
    if sc.support_sizes != (sc.m1, sc.m2):
        raise ValueError("stability sweeps take subspace scenarios only: the deviation "
                         "search draws dense factors, outside a sparse support")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_recovery(restarts, 0.0)  # the delta = 0 rows recover noiselessly
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if mode not in bounds.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    deltas = [float(delta) for delta in deltas]
    if not all(delta >= 0 for delta in deltas):
        raise ValueError("stability sweep budgets delta must be nonnegative")
    R = ensemble_radius(COMPLEX_UNIFORM_BALL, sc, R)
    levels = []  # (epsilon, bound_raw, bound_clamped) per row
    for delta in deltas:
        if delta > 0:
            eps = bounds.epsilon_of_delta(sc, mode, R, delta)
            levels.append((eps, *bounds.failure_prob_bound(sc, mode, R, delta, eps)))
        else:
            levels.append((0.0, 0.0, 0.0))

    def seeds_of(row_idx):
        return [mix_seed(seed, row_idx, i) for i in range(trials)]

    trial_devs = [[] for _ in deltas]  # per delta > 0 row: deviation per trial
    status = np.zeros((len(deltas), 3), dtype=int)  # per row: starts by stop status
    searched = [(row_idx, trial_seed) for row_idx, delta in enumerate(deltas) if delta > 0
                for trial_seed in seeds_of(row_idx)]
    batch = -(-SEARCH_BATCH_SLOTS // starts)  # trials per search batch
    # a sweep holds the ensembles of one batch of trials, whatever its
    # number of trials
    for start in range(0, len(searched), batch):
        rows_of, seeds = zip(*searched[start:start + batch])
        delta = np.array([deltas[row_idx] for row_idx in rows_of])
        ens, X, Y, _ = _draw_trials(sc, COMPLEX_UNIFORM_BALL, seeds, R=R)
        p0 = np.array([_draw_starts(x0, y0, d, starts, rng)
                       for x0, y0, d, rng in zip(X, Y, delta, _Streams(seeds, 2))])
        found, stops = _deviation_search(ens.a, ens.b, X, Y, delta, p0)
        for row_idx, dev, stop in zip(rows_of, found, stops):
            trial_devs[row_idx].append(float(dev))
            status[row_idx] += np.bincount(stop, minlength=3)

    rows = []
    for row_idx, (delta, (eps, raw, clamped)) in enumerate(zip(deltas, levels)):
        if delta > 0:
            devs = trial_devs[row_idx]
            violations = sum(1 for dev in devs if dev > eps)
        else:
            devs, ok = _recover_trials([sc] * trials, COMPLEX_UNIFORM_BALL, seeds_of(row_idx),
                                       R=R, restarts=restarts, noise_level=0.0)
            violations = int((~ok).sum())
        row = {"delta": delta, "trials": trials, "violations": violations,
               "violation_rate": violations / trials, "epsilon": eps,
               "bound_raw": raw, "bound_clamped": clamped,
               "max_deviation": float(np.max(devs)),
               "mean_lifted_error": float(np.mean(devs))}
        if delta > 0:
            row["search_status"] = status[row_idx].tolist()
        rows.append(row)
    return rows
