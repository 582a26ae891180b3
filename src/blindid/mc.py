"""Seeded Monte-Carlo engines: small-ball probability estimation,
phase-transition sweeps over the sample count, and stability sweeps over
the measurement perturbation budget.

Every trial derives its own 64-bit seed from the plan's master seed via a
documented splitmix64 mix of (master_seed, row_index, trial_index), so
results are reproducible trial-by-trial. One trial kernel (draw_trial,
recover_trial) serves the phase transitions, the delta = 0 stability rows
and the CLI's `recover`, so `recover --seed s` replays the sweep trial whose
seed is s, in every row: a sweep point is a plain ConstraintScenario at
that n, also below the sample count d. Stability sweeps search every
delta > 0 trial in one batched L-BFGS run, and each trial's result does not
depend on the batch it is solved in. Each start of the batch runs its own
line search, and one objective call per round serves every running start.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from . import bounds, spectral
from .ensembles import (COMPLEX_UNIFORM_BALL, REAL_GENERIC, REAL_UNIFORM_BALL,
                        ConstraintScenario, Ensemble, build_ensemble, mix_seed,
                        sample_uniform_complex_ball_batch)
from .lifting import LiftedMatrix, apply_G, mean_isometry_radius
from .recovery import RecoveryResult, is_recovered, solve_sparse_enumerate

__all__ = [
    "TrialPlan",
    "TRANSITION_COLUMNS",
    "STABILITY_COLUMNS",
    "estimate_small_ball_prob",
    "mean_isometry_relative_error",
    "max_feasible_deviation",
    "run_phase_transition",
    "run_stability_sweep",
    "draw_trial",
    "recover_trial",
    "sweep_csv",
    "run_manifest",
]

# The CSV columns of each sweep, in order. Sweep rows are dicts with these
# keys; a row may carry more keys, which the CSV does not print.
TRANSITION_COLUMNS = ("n", "trials", "successes", "rate", "d", "two_d",
                      "mean_lifted_error")
STABILITY_COLUMNS = ("delta", "trials", "violations", "violation_rate", "epsilon",
                     "bound_raw", "bound_clamped", "max_deviation",
                     "mean_lifted_error")


@dataclass(frozen=True)
class TrialPlan:
    """Configuration of one seeded sweep.

    noise_level is the l2 budget of the time-domain perturbation e, so the
    measurement proximity parameter is delta = 2 * noise_level. sweep holds
    the n grid (phase transition) or the delta grid (stability).
    """

    sc: ConstraintScenario
    ensemble_tag: str
    trials: int
    sweep: Tuple[float, ...]
    master_seed: int = 0
    restarts: int = 20
    noise_level: float = 0.0
    R: Optional[float] = None
    mode: str = "single_point"
    starts: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.noise_level >= 0:
            raise ValueError("noise_level must be nonnegative")
        object.__setattr__(self, "sweep", tuple(self.sweep))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "sc": self.sc.to_dict(), "sweep": list(self.sweep)}


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
    M = np.asarray(M.M if isinstance(M, LiftedMatrix) else M, dtype=np.complex128)
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


def _noise_on_sphere(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return radius * g / np.linalg.norm(g)


def _plant_factors(sc: ConstraintScenario, real: bool,
                   rng: np.random.Generator) -> LiftedMatrix:
    """Random admissible rank-1 matrix, normalized to unit Frobenius norm."""
    def draw(m, s):
        if real:
            v = rng.standard_normal(m).astype(np.complex128)
        else:
            v = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        if s is not None and s < m:
            keep = np.sort(rng.choice(m, size=s, replace=False))
            mask = np.zeros(m, dtype=bool)
            mask[keep] = True
            v = np.where(mask, v, 0.0)
        return v

    x = draw(sc.m1, sc.s1)
    y = draw(sc.m2, None if sc.kind == "mixed" else sc.s2)
    nrm = np.linalg.norm(x) * np.linalg.norm(y)
    return LiftedMatrix.from_factors(x / nrm, y)


def draw_trial(sc: ConstraintScenario, tag: str, seed: int,
               R: Optional[float] = None
               ) -> Tuple[Ensemble, LiftedMatrix, np.random.Generator,
                          np.random.Generator]:
    """The ensemble, the planted unit-norm admissible matrix and the open
    streams of the trial with seed `seed`.

    Each stream is derived from the trial seed: mix_seed(seed, 0) builds the
    ensemble, mix_seed(seed, 1) plants (and then draws any noise), and
    mix_seed(seed, 2) drives the solver or the deviation search. Returns
    (ens, M0, plant_rng, solver_rng).
    """
    ens = build_ensemble(sc, tag, mix_seed(seed, 0), R=ensemble_radius(tag, sc, R))
    plant_rng = np.random.default_rng(mix_seed(seed, 1))
    solver_rng = np.random.default_rng(mix_seed(seed, 2))
    M0 = _plant_factors(sc, tag in (REAL_GENERIC, REAL_UNIFORM_BALL), plant_rng)
    return ens, M0, plant_rng, solver_rng


def recover_trial(sc: ConstraintScenario, tag: str, seed: int, *,
                  R: Optional[float] = None, restarts: int = 20,
                  noise_level: float = 0.0) -> Tuple[RecoveryResult, bool]:
    """Plant, measure, solve and score the trial with seed `seed`.

    The measurements are taken in the time domain, z = the circular
    convolution of Dx and Ey plus spherical noise of radius noise_level
    from the plant stream, and solved from z_tilde = F z / sqrt(n) over
    every admissible support.
    Returns the solver result, whose lifted_error is measured against the
    planted matrix, and whether the trial counts as recovered.
    """
    if not noise_level >= 0:
        raise ValueError("noise_level must be nonnegative")
    ens, M0, plant_rng, solver_rng = draw_trial(sc, tag, seed, R)
    z = apply_G(ens, M0)
    if noise_level > 0:
        z = z + _noise_on_sphere(sc.n, noise_level, plant_rng)
    z_tilde = spectral.dft(z) / np.sqrt(sc.n)
    res = solve_sparse_enumerate(ens, z_tilde, restarts=restarts, rng=solver_rng,
                                 truth=M0)
    return res, is_recovered(res.M_hat, M0)


def run_phase_transition(plan: TrialPlan) -> list[dict]:
    """Recovery success rate versus the sample count n, one row per sweep
    point with the keys of TRANSITION_COLUMNS.

    Trial i of row r is recover_trial with seed mix_seed(master_seed, r, i):
    it plants a unit-norm admissible rank-1 matrix, measures it (optionally
    with spherical noise of radius noise_level), solves over every
    admissible support, and scores success by the recovery threshold. Rows
    carry the thresholds d and 2d for annotation.
    """
    rows = []
    for row_idx, value in enumerate(plan.sweep):
        n = int(value)
        sc_n = plan.sc.with_n(n)
        d = bounds.sample_complexity_d(sc_n)
        results = [recover_trial(sc_n, plan.ensemble_tag,
                                 mix_seed(plan.master_seed, row_idx, i), R=plan.R,
                                 restarts=plan.restarts,
                                 noise_level=plan.noise_level)
                   for i in range(plan.trials)]
        successes = sum(1 for _, ok in results if ok)
        mean_err = float(np.mean([res.lifted_error for res, _ in results]))
        rows.append({"n": n, "trials": plan.trials, "successes": successes,
                     "rate": successes / plan.trials, "d": d, "two_d": 2 * d,
                     "mean_lifted_error": mean_err})
    return rows


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag, y.real, y.imag], axis=-1)


def _unpack(p: np.ndarray, m1: int, m2: int) -> Tuple[np.ndarray, np.ndarray]:
    x = p[..., :m1] + 1j * p[..., m1:2 * m1]
    y = p[..., 2 * m1:2 * m1 + m2] + 1j * p[..., 2 * m1 + m2:]
    return x, y


def _sqnorm(z: np.ndarray, axis) -> np.ndarray:
    return (z.real ** 2 + z.imag ** 2).sum(axis)


# Weight of the squared proximity and unit-ball penalties.
DEVIATION_MU = 1e4


def _deviation_objective(p, ac, bc, M0, t0, delta):
    """Penalized objective (values, gradients), one slot per row of p, for
    maximizing the Frobenius deviation from M0 subject to measurement
    proximity <= delta and the unit Frobenius ball. ac and bc hold the
    conjugated frequency rows of each slot's ensemble. Gradients are exact
    (Wirtinger calculus on the factors).

    Every reduction runs within one slot, so a slot's arithmetic does not
    depend on the other slots of the batch.
    """
    m1, m2 = M0.shape[1:]
    x, y = _unpack(p, m1, m2)
    xc, yc = x.conj(), y.conj()
    M = x[:, :, None] * y[:, None, :]
    diff = M - M0
    u = (ac * x[:, None, :]).sum(2)
    v = (bc * y[:, None, :]).sum(2)
    r = u * v - t0
    # Complex products take named operands: numpy reuses a large temporary
    # right operand in place, which swaps the factors of a complex product
    # and can change its last bit, so results would depend on batch size.
    rc = r.conj()

    s = np.sqrt(_sqnorm(r, 1))
    h = np.maximum(s - delta, 0.0)
    t = np.sqrt(_sqnorm(M, (1, 2)))
    h2 = np.maximum(t - 1.0, 0.0)
    val = -_sqnorm(diff, (1, 2)) + DEVIATION_MU * h * h + DEVIATION_MU * h2 * h2

    # penalty weights, zero where a penalty is inactive (h > 0 implies s > 0)
    w = (DEVIATION_MU * h / np.where(h > 0.0, s, 1.0))[:, None]
    w2 = (DEVIATION_MU * h2 / np.where(h2 > 0.0, t, 1.0))[:, None]
    gx = -(diff * yc[:, None, :]).sum(2)
    gx += w * (ac * (v * rc)[:, :, None]).sum(1).conj()
    gx += w2 * (M * yc[:, None, :]).sum(2)
    gy = -(diff * xc[:, :, None]).sum(1)
    gy += w * (bc * (u * rc)[:, :, None]).sum(1).conj()
    gy += w2 * (M * xc[:, :, None]).sum(1)
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
    """L-BFGS two-loop recursion, H g, per slot. Memory is newest first;
    unused entries are zero and leave the result unchanged."""
    used = int(np.count_nonzero(rho, axis=1).max(initial=0))
    q = g.copy()
    alpha = np.zeros(rho.shape)
    for i in range(used):
        alpha[:, i] = rho[:, i] * (S[:, i] * q).sum(1)
        q -= alpha[:, i, None] * Y[:, i]
    yy = (Y[:, 0] ** 2).sum(1)
    # initial Hessian scale s'y / y'y of the newest pair, 1 without memory
    r = q / np.where(rho[:, 0] > 0.0, rho[:, 0] * yy, 1.0)[:, None]
    for i in reversed(range(used)):
        beta = rho[:, i] * (Y[:, i] * r).sum(1)
        r += (alpha[:, i] - beta)[:, None] * S[:, i]
    return r


def _lbfgs(fun, p, maxiter):
    """Minimize each slot (row of p) independently with L-BFGS.

    fun(points, idx) returns values and gradients of slots idx at the given
    points. Each slot runs its own weak-Wolfe line search by bracketing
    (doubling, then bisection), so one call of fun per round evaluates
    every running slot at its own trial point and no slot waits for another
    slot's line search. Converged or failed slots are frozen. Stop tests
    follow scipy's L-BFGS-B: max |g| <= LBFGS_PGTOL or a relative reduction
    of f at most LBFGS_FTOL is CONVERGED, maxiter iterations is MAXITER,
    and LBFGS_MAXLS failed trials from steepest descent are
    LINE_SEARCH_FAILED (with memory, they first clear the memory and
    retry). Returns the final points and the per-slot status.
    """
    B, dim = p.shape
    p = p.copy()
    f, g = fun(p, np.arange(B))
    S = np.zeros((B, LBFGS_MEMORY, dim))
    Y = np.zeros((B, LBFGS_MEMORY, dim))
    rho = np.zeros((B, LBFGS_MEMORY))
    nit = np.zeros(B, dtype=int)
    status = np.where(np.abs(g).max(1) <= LBFGS_PGTOL, CONVERGED, _RUNNING)
    # per-slot line search: direction d, slope gd, trial step alpha in the
    # bracket [lo, hi], failed trials so far, and whether memory was empty
    d = np.zeros((B, dim))
    gd, alpha, lo, hi = np.zeros((4, B))
    tries = np.zeros(B, dtype=int)
    fresh = np.zeros(B, dtype=bool)
    new = np.flatnonzero(status == _RUNNING)  # slots that need a direction

    def clear_memory(slots):
        S[slots], Y[slots], rho[slots] = 0.0, 0.0, 0.0

    while True:
        if new.size:
            dn = -_two_loop(g[new], S[new], Y[new], rho[new])
            gdn = (g[new] * dn).sum(1)
            # not a descent direction: clear the memory, use steepest descent
            bad = ~(gdn < 0.0)
            if bad.any():
                clear_memory(new[bad])
                dn[bad] = -g[new[bad]]
                gdn[bad] = (g[new[bad]] * dn[bad]).sum(1)
            fresh[new] = rho[new, 0] == 0.0
            alpha[new] = np.where(fresh[new], 1.0 / np.sqrt((dn * dn).sum(1)), 1.0)
            d[new], gd[new], lo[new], hi[new], tries[new] = dn, gdn, 0.0, np.inf, 0
        act = np.flatnonzero(status == _RUNNING)
        if act.size == 0:
            break
        a = alpha[act]
        pt = p[act] + a[:, None] * d[act]
        ft, gt = fun(pt, act)
        sufficient = ft <= f[act] + WOLFE_C1 * a * gd[act]
        curved = (gt * d[act]).sum(1) >= WOLFE_C2 * gd[act]
        done = sufficient & curved
        hi[act] = np.where(sufficient, hi[act], a)
        lo[act] = np.where(sufficient & ~curved, a, lo[act])
        alpha[act] = np.where(np.isinf(hi[act]), 2.0 * a, 0.5 * (lo[act] + hi[act]))
        tries[act] += 1

        # out of trials: fail from steepest descent, else clear the memory
        # and retry with a new direction
        stop = ~done & (tries[act] >= LBFGS_MAXLS)
        failed = act[stop]
        status[failed[fresh[failed]]] = LINE_SEARCH_FAILED
        clear_memory(failed)

        j = act[done]
        s = pt[done] - p[j]
        yv = gt[done] - g[j]
        sy = (s * yv).sum(1)
        keep = sy > np.finfo(float).eps * -(g[j] * s).sum(1)
        jk = j[keep]
        S[jk, 1:], Y[jk, 1:], rho[jk, 1:] = S[jk, :-1], Y[jk, :-1], rho[jk, :-1]
        S[jk, 0], Y[jk, 0], rho[jk, 0] = s[keep], yv[keep], 1.0 / sy[keep]

        f_old = f[j]
        p[j], f[j], g[j] = pt[done], ft[done], gt[done]
        nit[j] += 1
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f[j])), 1.0)
        conv = (f_old - f[j] <= LBFGS_FTOL * scale) | (np.abs(g[j]).max(1) <= LBFGS_PGTOL)
        status[j[conv]] = CONVERGED
        status[j[~conv & (nit[j] >= maxiter)]] = MAXITER
        new = act[(done | stop) & (status[act] == _RUNNING)]
    return p, status


def _feasible_scan(ac, bc, M0, t0, x0, y0, x, y, delta) -> np.ndarray:
    """Largest feasible deviation along each slot's factor segment from
    (x0, y0) to (x, y): proximity <= delta and Frobenius norm <= 1, with
    tiny slack. Loops over the 65 grid points so memory stays O(slots)."""
    best = np.zeros(len(delta))
    for t in np.linspace(0.0, 1.0, 65):
        xt = x0 + t * (x - x0)
        yt = y0 + t * (y - y0)
        Mt = xt[:, :, None] * yt[:, None, :]
        r = (ac * xt[:, None, :]).sum(2) * (bc * yt[:, None, :]).sum(2) - t0
        feasible = ((np.sqrt(_sqnorm(Mt, (1, 2))) <= 1.0 + 1e-9)
                    & (np.sqrt(_sqnorm(r, 1)) <= delta * (1.0 + 1e-9)))
        dev = np.sqrt(_sqnorm(Mt - M0, (1, 2)))
        best = np.where(feasible, np.maximum(best, dev), best)
    return best


def _draw_starts(x0, y0, delta: float, starts: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Packed start points, (starts, 2(m1+m2)): a perturbation of the
    planted factors, then unit-norm random factors."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    m1, m2 = x0.size, y0.size
    out = []
    for k in range(starts):
        if k == 0:
            scale = 0.1 + 0.5 * delta
            xs = x0 + scale * (rng.standard_normal(m1) + 1j * rng.standard_normal(m1))
            ys = y0 + scale * (rng.standard_normal(m2) + 1j * rng.standard_normal(m2))
        else:
            xs = (rng.standard_normal(m1) + 1j * rng.standard_normal(m1)) / np.sqrt(2)
            ys = (rng.standard_normal(m2) + 1j * rng.standard_normal(m2)) / np.sqrt(2)
            nrm = np.linalg.norm(xs) * np.linalg.norm(ys)
            xs, ys = xs / nrm, ys
        out.append(_pack(xs, ys))
    return np.array(out)


def _deviation_search(a, b, x0, y0, delta, p0, maxiter: int = 200):
    """Batched multi-start deviation search over T problems with S starts.

    a (T, n, m1) and b (T, n, m2) are the frequency rows, (x0, y0) the
    planted factors, delta (T,) the budgets and p0 (T, S, 2(m1+m2)) the
    packed starts. Every start is one L-BFGS slot on the penalized
    objective; its end point is repaired by the feasible-segment scan.
    Returns the largest feasible deviation per problem, (T,), and the stop
    status per start, (T, S).
    """
    T, S = p0.shape[:2]
    ac = np.repeat(a.conj(), S, axis=0)
    bc = np.repeat(b.conj(), S, axis=0)
    x0 = np.repeat(x0, S, axis=0)
    y0 = np.repeat(y0, S, axis=0)
    delta = np.repeat(np.asarray(delta, dtype=float), S)
    M0 = x0[:, :, None] * y0[:, None, :]
    t0 = (ac * x0[:, None, :]).sum(2) * (bc * y0[:, None, :]).sum(2)

    def fun(p, idx):
        return _deviation_objective(p, ac[idx], bc[idx], M0[idx], t0[idx],
                                    delta[idx])

    with np.errstate(over="ignore", invalid="ignore"):
        p, status = _lbfgs(fun, p0.reshape(T * S, -1), maxiter)
    x, y = _unpack(p, x0.shape[1], y0.shape[1])
    best = _feasible_scan(ac, bc, M0, t0, x0, y0, x, y, delta)
    return best.reshape(T, S).max(1), status.reshape(T, S)


def max_feasible_deviation(ens: Ensemble, M0: LiftedMatrix, delta: float,
                           starts: int, rng: np.random.Generator) -> float:
    """Heuristic multi-start maximization of the deviation from M0 within
    the delta measurement ball. Lower-bound evidence on the worst case; the
    true guarantee is universal and cannot be certified by search."""
    p0 = _draw_starts(M0.x, M0.y, delta, starts, rng)
    best, _ = _deviation_search(ens.a[None], ens.b[None], M0.x[None], M0.y[None],
                                [delta], p0[None])
    return float(best[0])


# Starts searched per batch. Slots are independent, so the cap changes no
# result; it keeps a sweep's memory flat in the number of trials.
SEARCH_BATCH_SLOTS = 2048


def run_stability_sweep(plan: TrialPlan) -> list[dict]:
    """Observed worst-case deviation versus the measurement budget delta,
    one row per sweep point with the keys of STABILITY_COLUMNS.

    Per delta and trial: draw a uniform-ball ensemble, plant a unit-norm
    matrix, search for the largest feasible deviation, and record whether
    it violates the predicted reconstruction level. delta = 0 degenerates
    to a noiseless uniqueness check. The searches of delta > 0 trials run
    batched, up to SEARCH_BATCH_SLOTS starts at a time across rows; a
    trial's result does not depend on its batch. delta > 0 rows also carry
    search_status: how many starts converged, hit the iteration cap, and
    failed their line search.
    """
    if plan.ensemble_tag != COMPLEX_UNIFORM_BALL:
        raise ValueError("stability sweeps require the complex uniform-ball ensemble")
    deltas = [float(delta) for delta in plan.sweep]
    if not all(delta >= 0 for delta in deltas):
        raise ValueError("stability sweep budgets delta must be nonnegative")
    sc = plan.sc
    R = ensemble_radius(COMPLEX_UNIFORM_BALL, sc, plan.R)
    levels = []  # (epsilon, bound_raw, bound_clamped) per row
    for delta in deltas:
        if delta > 0:
            eps = bounds.epsilon_of_delta(sc, plan.mode, R, delta)
            levels.append((eps, *bounds.failure_prob_bound(sc, plan.mode, R, delta, eps)))
        else:
            levels.append((0.0, 0.0, 0.0))

    trial_devs = [[] for _ in deltas]  # per row: deviation per trial
    zero_violations = [0] * len(deltas)
    status = [np.zeros(3, dtype=int) for _ in deltas]  # per row: starts by stop status
    pending = []  # (row, a, b, x0, y0, delta, starts) per trial awaiting its search

    def search_pending():
        rows_of, *problems = zip(*pending)
        found, stops = _deviation_search(*(np.stack(col) for col in problems))
        for row, dev, stop in zip(rows_of, found, stops):
            trial_devs[row].append(float(dev))
            status[row] += np.bincount(stop, minlength=3)
        pending.clear()

    for row_idx, delta in enumerate(deltas):
        for i in range(plan.trials):
            seed = mix_seed(plan.master_seed, row_idx, i)
            if delta == 0:
                res, ok = recover_trial(sc, COMPLEX_UNIFORM_BALL, seed, R=R,
                                        restarts=plan.restarts)
                zero_violations[row_idx] += not ok
                trial_devs[row_idx].append(res.lifted_error)
                continue
            ens, M0, _, search_rng = draw_trial(sc, COMPLEX_UNIFORM_BALL, seed, R)
            p0 = _draw_starts(M0.x, M0.y, delta, plan.starts, search_rng)
            pending.append((row_idx, ens.a, ens.b, M0.x, M0.y, delta, p0))
            if len(pending) * len(p0) >= SEARCH_BATCH_SLOTS:
                search_pending()
    if pending:
        search_pending()

    rows = []
    for row_idx, (delta, (eps, raw, clamped)) in enumerate(zip(deltas, levels)):
        devs = trial_devs[row_idx]
        violations = (sum(1 for dev in devs if dev > eps) if delta > 0
                      else zero_violations[row_idx])
        row = {"delta": delta, "trials": plan.trials, "violations": violations,
               "violation_rate": violations / plan.trials, "epsilon": eps,
               "bound_raw": raw, "bound_clamped": clamped,
               "max_deviation": float(np.max(devs)),
               "mean_lifted_error": float(np.mean(devs))}
        if delta > 0:
            row["search_status"] = status[row_idx].tolist()
        rows.append(row)
    return rows


def run_manifest(plan: TrialPlan) -> dict:
    """Plan echo with a content hash of its canonical JSON form."""
    plan_dict = plan.to_dict()
    canon = json.dumps(plan_dict, sort_keys=True, separators=(",", ":"))
    return {"plan": plan_dict,
            "config_sha256": hashlib.sha256(canon.encode()).hexdigest()}
