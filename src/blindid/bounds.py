"""Closed-form bound evaluators: sample complexities, stability constants,
covering and volume formulas, small-ball concentration functions, failure
probabilities, and signal-to-noise ratios.

All logarithms are natural. Factorials and binomials are evaluated in log
space and exponentiated at the end, so large dimensions do not overflow.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .ensembles import ConstraintScenario, Ensemble
from .lifting import apply_G, as_matrix

__all__ = [
    "sample_complexity_d",
    "minkowski_dim_upper",
    "volume_complex_ball",
    "volume_real_ball",
    "covering_bound",
    "small_ball_bound",
    "constant_C",
    "log_stability_prefactor",
    "failure_prob_bound",
    "epsilon_of_delta",
    "snr_metrics",
    "make_report",
]


def sample_complexity_d(sc: ConstraintScenario) -> int:
    """Identifiability threshold d: m1+m2, s1+m2, or s1+s2 by scenario kind."""
    if sc.kind == "subspace":
        return sc.m1 + sc.m2
    if sc.kind == "mixed":
        return sc.s1 + sc.m2
    return sc.s1 + sc.s2


def minkowski_dim_upper(sc: ConstraintScenario) -> int:
    """Upper bound 2*d on the box-counting dimension of the lifted constraint
    set restricted to the unit ball."""
    return 2 * sample_complexity_d(sc)


def volume_complex_ball(m: int, R: float) -> float:
    """Volume pi^m R^(2m) / m! of the radius-R ball in C^m = R^(2m)."""
    return volume_real_ball(2 * m, R)


def volume_real_ball(m: int, R: float) -> float:
    """Volume pi^(m/2) R^m / Gamma(m/2 + 1) of the radius-R ball in R^m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if not R > 0:
        raise ValueError("R must be positive")
    if m == 0:
        return 1.0
    return _exp(0.5 * m * math.log(math.pi) + m * math.log(R)
                - math.lgamma(0.5 * m + 1))


def _exp(log_value: float) -> float:
    """exp that saturates to +inf instead of raising on overflow."""
    return math.inf if log_value > 709.0 else math.exp(log_value)


def _log_binom(m: int, s: int) -> float:
    return math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)


def covering_bound(kind: str, m: int, rho: float, s: Optional[int] = None) -> float:
    """Covering-number upper bound for a unit ball or a sparse unit ball.

    kind="ball": (3/rho)^m. kind="sparse_ball": C(m, s) * (3/rho)^s.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if m < 0:
        raise ValueError("m must be >= 0")
    if kind == "ball":
        return _exp(m * math.log(3.0 / rho))
    if kind == "sparse_ball":
        if s is None:
            raise ValueError("sparse_ball requires s")
        if s > m:
            raise ValueError(f"s={s} exceeds m={m}")
        return _exp(_log_binom(m, s) + s * math.log(3.0 / rho))
    raise ValueError(f"unknown covering kind {kind!r}")


def small_ball_bound(field: str, rho: float, ell: float, L: float, R: float,
                     m1: int, m2: int) -> float:
    """Upper bound on the probability that |a^T M b| (real) or |a^* M conj(b)|
    (complex) falls below rho, for a, b uniform on radius-R balls and
    ell <= spectral norm of M <= L.

    Real case: rho * f with
      f = 4 V_R^(m1-1) V_R^(m2-1) / (ell V_R^(m1) V_R^(m2)) * (1 + ln(L R^2 / rho)).
    Complex case: rho^2 * g with the pi^2 factor, squared ell, and doubled
    log term, using complex-ball volumes.
    """
    if not (rho > 0 and ell > 0 and L > 0 and R > 0):
        raise ValueError("rho, ell, L, R must all be positive")
    if ell > L:
        raise ValueError("need ell <= L")
    log_term = math.log(L * R * R / rho)
    if field == "real":
        f = (4.0 * volume_real_ball(m1 - 1, R) * volume_real_ball(m2 - 1, R)
             / (ell * volume_real_ball(m1, R) * volume_real_ball(m2, R))
             * (1.0 + log_term))
        return rho * f
    if field == "complex":
        g = (math.pi**2 * volume_complex_ball(m1 - 1, R) * volume_complex_ball(m2 - 1, R)
             / (ell**2 * volume_complex_ball(m1, R) * volume_complex_ball(m2, R))
             * (1.0 + 2.0 * log_term))
        return rho * rho * g
    raise ValueError(f"unknown field {field!r}")


def constant_C(n: int, m1: int, m2: int, R: float, delta: float) -> float:
    """Log-factor constant 648 m1 m2 (1 + 2 ln(2 sqrt(n) R^2 / (3 delta))).

    The log may go negative for large delta; the value is returned as-is.
    """
    if n < 1 or m1 < 1 or m2 < 1 or not (R > 0 and delta > 0):
        raise ValueError("inputs must be positive")
    return 648.0 * m1 * m2 * (1.0 + 2.0 * math.log(2.0 * math.sqrt(n) * R * R / (3.0 * delta)))


def _log_binom_multiplier(sc: ConstraintScenario, power: int) -> float:
    """log of the binomial support-counting multiplier for C' (power=2) or
    C'' (power=4)."""
    if sc.kind == "subspace":
        return 0.0
    if sc.kind == "mixed":
        return power * _log_binom(sc.m1, sc.s1)
    return power * (_log_binom(sc.m1, sc.s1) + _log_binom(sc.m2, sc.s2))


def log_stability_prefactor(sc: ConstraintScenario, mode: str, R: float,
                            delta: float) -> float:
    """log C' (mode="single_point") or log C'' (mode="uniform").

    C' = [binoms^2] C^n / n^(n-d); C'' = [binoms^4] (4C)^n / n^(n-2d),
    with C = constant_C(n, m1, m2, R, delta).
    """
    n = sc.n
    d = sample_complexity_d(sc)
    C = constant_C(n, sc.m1, sc.m2, R, delta)
    if not C > 0:
        raise ValueError(
            f"constant C = {C} is not positive (delta too large for the log factor)")
    if mode == "single_point":
        return _log_binom_multiplier(sc, 2) + n * math.log(C) - (n - d) * math.log(n)
    if mode == "uniform":
        return _log_binom_multiplier(sc, 4) + n * math.log(4.0 * C) - (n - 2 * d) * math.log(n)
    raise ValueError(f"unknown mode {mode!r}")


def _check_mode_precondition(sc: ConstraintScenario, mode: str) -> int:
    d = sample_complexity_d(sc)
    if mode == "single_point" and sc.n <= d:
        raise ValueError(
            f"single-point stability requires n > d; got n={sc.n}, d={d}")
    if mode == "uniform" and sc.n <= 2 * d:
        raise ValueError(
            f"uniform stability requires n > 2d; got n={sc.n}, 2d={2 * d}")
    return d


def failure_prob_bound(sc: ConstraintScenario, mode: str, R: float,
                       delta: float, epsilon: float) -> Tuple[float, float]:
    """Stability failure probability bound, raw and clamped to [0, 1].

    raw = C' (delta^2/R^4)^(n-d) (1/eps^2)^n for single_point, and the C''
    variant with exponent n-2d for uniform. Values above 1 are vacuous but
    reported so experiments can locate the non-vacuous regime.
    """
    d = _check_mode_precondition(sc, mode)
    if not (R > 0 and delta > 0 and epsilon > 0):
        raise ValueError("R, delta, epsilon must be positive")
    expo = sc.n - d if mode == "single_point" else sc.n - 2 * d
    log_raw = (log_stability_prefactor(sc, mode, R, delta)
               + expo * (2.0 * math.log(delta) - 4.0 * math.log(R))
               - 2.0 * sc.n * math.log(epsilon))
    raw = _exp(log_raw)
    return raw, min(1.0, max(0.0, raw))


def epsilon_of_delta(sc: ConstraintScenario, mode: str, R: float, delta: float) -> float:
    """Reconstruction error level at which the failure bound is non-trivial.

    single_point: C'^(1/(2n)) (delta/R^2)^(alpha/2) with alpha = 1 - d/n;
    uniform: 2 C''^(1/(2n)) (delta/R^2)^beta with beta = 1 - 2d/n.
    """
    d = _check_mode_precondition(sc, mode)
    if not (R > 0 and delta > 0):
        raise ValueError("R and delta must be positive")
    n = sc.n
    log_C = log_stability_prefactor(sc, mode, R, delta)
    log_base = math.log(delta) - 2.0 * math.log(R)
    if mode == "single_point":
        alpha = 1.0 - d / n
        return math.exp(log_C / (2 * n) + 0.5 * alpha * log_base)
    beta = 1.0 - 2.0 * d / n
    return math.exp(math.log(2.0) + log_C / (2 * n) + beta * log_base)


def snr_metrics(M0, M, ens: Ensemble) -> Tuple[float, float]:
    """(RSNR, MSNR): spectral-norm reconstruction ratio and its
    measurement-domain analogue via the time-domain operator."""
    A0 = as_matrix(M0)
    A = as_matrix(M)
    num_r = float(np.linalg.norm(A0, 2)) ** 2
    den_r = float(np.linalg.norm(A - A0, 2)) ** 2
    rsnr = math.inf if den_r == 0.0 else num_r / den_r
    g0 = apply_G(ens, A0)
    g = apply_G(ens, A)
    num_m = float(np.linalg.norm(g0)) ** 2
    den_m = float(np.linalg.norm(g - g0)) ** 2
    msnr = math.inf if den_m == 0.0 else num_m / den_m
    return rsnr, msnr


def make_report(sc: ConstraintScenario, *, delta: float = 0.1, epsilon: float = 0.5,
                R: float = 1.0, rho: float = 0.1, ell: float = 1.0,
                L: float = 1.0) -> dict:
    """Every closed-form quantity for one scenario, as the dict that
    `blindid bounds` prints.

    Stability fields are None when the sample-count precondition (n > d for
    the single-point bound, n > 2d for the uniform bound) fails.
    """
    for name, value in (("delta", delta), ("epsilon", epsilon), ("R", R),
                        ("rho", rho), ("ell", ell), ("L", L)):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    if ell > L:
        raise ValueError("need ell <= L")
    d = sample_complexity_d(sc)
    n = sc.n

    def _try(mode):
        try:
            log_pref = log_stability_prefactor(sc, mode, R, delta)
            pref = _exp(log_pref)
            raw, clamped = failure_prob_bound(sc, mode, R, delta, epsilon)
            eps = epsilon_of_delta(sc, mode, R, delta)
            return pref, raw, clamped, eps
        except ValueError:
            return None, None, None, None

    C_prime, weak_raw, weak_clamped, eps_single = _try("single_point")
    C_dbl, uni_raw, uni_clamped, eps_uniform = _try("uniform")

    return {
        "d": d, "dim_upper": minkowski_dim_upper(sc),
        "C": constant_C(n, sc.m1, sc.m2, R, delta), "C_prime": C_prime,
        "C_dblprime": C_dbl, "alpha": 1.0 - d / n,
        "beta": 1.0 - 2.0 * d / n, "epsilon_single": eps_single,
        "epsilon_uniform": eps_uniform, "weak_failure_raw": weak_raw,
        "weak_failure_bound": weak_clamped, "uniform_failure_raw": uni_raw,
        "uniform_failure_bound": uni_clamped,
        "small_ball_complex": small_ball_bound("complex", rho, ell, L, R, sc.m1, sc.m2),
        "small_ball_real": small_ball_bound("real", rho, ell, L, R, sc.m1, sc.m2),
    }
