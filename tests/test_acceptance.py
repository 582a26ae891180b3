"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its measured values (run with -s to see them alongside the verdict).

Criterion 3 is asserted twice: once exactly as stated (with the printed
second-moment radius constant, which is inconsistent with exact uniform-ball
sampling and therefore expected to fail; see the calibrated-radius notes in
the lifting module) and once with the calibrated radius, which passes.
"""

import math
import time

import numpy as np
import pytest

from blindid import bounds, mc
from blindid.ensembles import (COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL,
                               REAL_GENERIC, ConstraintScenario,
                               build_ensemble, mix_seed)
from blindid.lifting import (apply_A, apply_G, calibrated_isometry_radius,
                             mean_isometry_radius)
from blindid.recovery import (CERTIFIED_UNIQUE, COUNTEREXAMPLE_FOUND,
                              certify_strong, verify_counterexample)
from blindid.spectral import circular_convolve
from oracles import deviation_alone, direct_convolve, time_measurements


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_closed_form_constants_reproduce_hand_values():
    """Thresholds d and the C'/C'' compositions on a 10-point dimension grid,
    against an independent direct-arithmetic evaluation."""
    start = time.time()
    grid = [
        ConstraintScenario(kind="subspace", n=6, m1=2, m2=2),
        ConstraintScenario(kind="subspace", n=8, m1=3, m2=4),
        ConstraintScenario(kind="subspace", n=12, m1=2, m2=5),
        ConstraintScenario(kind="mixed", n=8, m1=4, m2=2, s1=1),
        ConstraintScenario(kind="mixed", n=10, m1=5, m2=3, s1=2),
        ConstraintScenario(kind="mixed", n=14, m1=6, m2=2, s1=3),
        ConstraintScenario(kind="sparsity", n=6, m1=4, m2=4, s1=1, s2=1),
        ConstraintScenario(kind="sparsity", n=10, m1=5, m2=5, s1=2, s2=2),
        ConstraintScenario(kind="sparsity", n=12, m1=6, m2=4, s1=3, s2=1),
        ConstraintScenario(kind="sparsity", n=16, m1=4, m2=6, s1=1, s2=3),
    ]
    R, delta = 1.0, 0.1
    checked = 0
    for sc in grid:
        # independent hand evaluation, direct arithmetic (no log space)
        if sc.kind == "subspace":
            d = sc.m1 + sc.m2
            binom = 1.0
        elif sc.kind == "mixed":
            d = sc.s1 + sc.m2
            binom = math.comb(sc.m1, sc.s1)
        else:
            d = sc.s1 + sc.s2
            binom = math.comb(sc.m1, sc.s1) * math.comb(sc.m2, sc.s2)
        assert bounds.sample_complexity_d(sc) == d
        assert bounds.minkowski_dim_upper(sc) == 2 * d
        C = 648 * sc.m1 * sc.m2 * (1 + 2 * math.log(2 * math.sqrt(sc.n) * R**2 / (3 * delta)))
        assert abs(bounds.constant_C(sc.n, sc.m1, sc.m2, R, delta) - C) <= 1e-12 * C
        if sc.n > d:
            c_prime = binom**2 * C**sc.n / sc.n ** (sc.n - d)
            got = math.exp(bounds.log_stability_prefactor(sc, "single_point", R, delta))
            assert abs(got - c_prime) <= 1e-12 * c_prime
        if sc.n > 2 * d:
            c_dbl = binom**4 * (4 * C) ** sc.n / sc.n ** (sc.n - 2 * d)
            got = math.exp(bounds.log_stability_prefactor(sc, "uniform", R, delta))
            assert abs(got - c_dbl) <= 1e-12 * c_dbl
        checked += 1
    elapsed = time.time() - start
    ok = checked == 10 and elapsed < 1.0
    report("1 (closed-form constants)", ok,
           f"{checked}/10 grid points exact within 1e-12, {elapsed:.3f}s")
    assert ok


def test_criterion_2_convolution_theorem_and_measurement_identity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_conv = 0.0
    worst_meas = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the FFT convolution vs the dense circulant product
        lhs = circular_convolve(u, v)
        rhs = direct_convolve(u, v)
        scale = max(np.linalg.norm(u) * np.linalg.norm(v), 1e-30)
        worst_conv = max(worst_conv, np.linalg.norm(lhs - rhs) / scale)

        m1 = int(rng.integers(1, min(n, 4) + 1))
        m2 = int(rng.integers(1, min(n, 4) + 1))
        sc = ConstraintScenario("subspace", n, m1, m2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, int(rng.integers(2**32)))
        M = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
        # frequency form computed through the time domain vs the row formula
        via_time = np.fft.fft(time_measurements(ens, M), norm="ortho") / np.sqrt(n)
        row_form = np.array([ens.a[j].conj() @ M @ ens.b[j].conj() for j in range(n)])
        mscale = max(np.abs(row_form).max(), 1e-30)
        # the time-domain operator on a rank-1 matrix vs the dense sum
        x = rng.standard_normal(m1) + 1j * rng.standard_normal(m1)
        y = rng.standard_normal(m2) + 1j * rng.standard_normal(m2)
        z = time_measurements(ens, np.outer(x, y))
        worst_meas = max(worst_meas,
                         np.abs(via_time - row_form).max() / mscale,
                         np.abs(apply_A(ens, M) - row_form).max() / mscale,
                         np.abs(apply_G(ens, x, y) - z).max() / max(np.abs(z).max(), 1e-30))
    elapsed = time.time() - start
    ok = worst_conv < 1e-10 and worst_meas < 1e-10 and elapsed < 5.0
    report("2 (convolution/measurement identities)", ok,
           f"max conv residual {worst_conv:.2e}, max measurement residual "
           f"{worst_meas:.2e} over 1000 instances, {elapsed:.1f}s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the printed second-moment radius ((m1+2)(m2+2)/n^2)^(1/4) is "
           "inconsistent with exact uniform sampling on the complex ball, "
           "whose second moment is m R^2/(m+1); the normal-operator average "
           "converges to ((m1+2)(m2+2)/((m1+1)(m2+1))) M, a fixed 16/9 bias "
           "at m1=m2=2 (~77.8% relative error)")
def test_criterion_3_mean_isometry_as_stated():
    start = time.time()
    R = mean_isometry_radius(8, 2, 2)
    err = mc.mean_isometry_relative_error(2, 2, 8, R, 20_000, seed=33)
    elapsed = time.time() - start
    ok = err <= 0.03 and elapsed < 60.0
    report("3 (mean isometry, radius as stated)", ok,
           f"relative error {err:.4f} at R={R:.4f} (tolerance 0.03), {elapsed:.1f}s")
    assert ok


def test_criterion_3_mean_isometry_calibrated_radius():
    start = time.time()
    R = calibrated_isometry_radius(8, 2, 2)
    err = mc.mean_isometry_relative_error(2, 2, 8, R, 20_000, seed=33)
    elapsed = time.time() - start
    ok = err <= 0.03 and elapsed < 60.0
    report("3 (mean isometry, calibrated radius)", ok,
           f"relative error {err:.4f} at R={R:.4f} (tolerance 0.03), {elapsed:.1f}s")
    assert ok


def test_criterion_4_small_ball_sharp_case_and_bound():
    start = time.time()
    rng = np.random.default_rng(44)
    details = []
    ok = True

    M1 = np.array([[1.0 + 0j]])
    for rho in (0.05, 0.1, 0.2):
        p_hat, se = mc.estimate_small_ball_prob(M1, 1.0, rho, 100_000, rng)
        exact = rho**2 * (1 + 2 * math.log(1 / rho))
        ok &= abs(p_hat - exact) <= 3 * se
        details.append(f"rho={rho}: |{p_hat:.5f}-{exact:.5f}|<=3*{se:.5f}")

    violations = 0
    for _ in range(20):
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        M = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
        L = float(np.linalg.norm(M, 2))
        rho = float(rng.choice([0.05, 0.1, 0.2])) * L
        p_hat, se = mc.estimate_small_ball_prob(M, 1.0, rho, 20_000, rng)
        if p_hat > bounds.small_ball_bound("complex", rho, L, L, 1.0, m1, m2) + 3 * se:
            violations += 1
    ok &= violations == 0
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report("4 (small-ball sharp case + bound)", ok,
           "; ".join(details) + f"; bound violations {violations}/20, {elapsed:.1f}s")
    assert ok


def test_criterion_5_identifiability_phase_transitions():
    start = time.time()
    sub = ConstraintScenario(kind="subspace", n=8, m1=2, m2=2)
    rows_a = mc.run_phase_transition(sub, COMPLEX_GENERIC, range(2, 9), trials=100, seed=55,
                                     restarts=20, noise_level=0.0, R=None)
    rates_a = {r["n"]: r["rate"] for r in rows_a}
    ok_a = rates_a[2] < 0.5 and all(rates_a[n] >= 0.99 for n in (5, 6, 7, 8))

    spar = ConstraintScenario(kind="sparsity", n=5, m1=4, m2=4, s1=1, s2=1)
    rate_b = mc.run_phase_transition(spar, COMPLEX_GENERIC, (5,), trials=100, seed=56,
                                     restarts=62, noise_level=0.0, R=None)[0]["rate"]
    ok_b = rate_b >= 0.99

    rows_c = mc.run_phase_transition(sub, REAL_GENERIC, range(2, 9), trials=100, seed=57,
                                     restarts=20, noise_level=0.0, R=None)
    rates_c = {r["n"]: r["rate"] for r in rows_c}
    ok_c = rates_c[2] < 0.5 and all(rates_c[n] >= 0.99 for n in (5, 6, 7, 8))

    elapsed = time.time() - start
    ok = ok_a and ok_b and ok_c and elapsed < 300.0
    report("5 (phase transitions)", ok,
           f"subspace rates {[rates_a[n] for n in range(2, 9)]}, "
           f"sparsity rate {rate_b}, real rates {[rates_c[n] for n in range(2, 9)]}, "
           f"{elapsed:.1f}s")
    assert ok


def test_gap_regime_transitions():
    """Recovery in the paper's regime d <= n < m1*m2 (s1*s2 or s1*m2 for
    sparse and mixed scenarios), where least squares on a support is
    underdetermined and only the rank-1 solver recovers.

    Gate: rate >= 0.99 at every n >= d (100 trials, seeds 11, 12 and 13),
    on 3x3 and 4x4 complex_generic and 3x3 real_generic subspace sweeps
    from n = d - 1, a 3x4 sparsity sweep with s1 = 2, s2 = 3 (d = 5) over
    n = 4..6 and a 4x4 mixed sweep with s1 = 2 (d = 6) over n = 5..8, both
    complex_generic. Measured when the gate took three seeds, with the
    CLI's default of 62 restarts run in waves: 100 of 100 at every n >= d on all
    15 sweeps. With 20 restarts (in waves or not) real 3x3 gave 98 of 100
    at n = d for seed 12, and 4x4 at n = 9 and real 3x3 at n = 7 gave 99
    for seed 13. Below d the plant is not identifiable and any exact fit
    stops a trial: at n = d - 1 the three subspace sweeps gave 65, 50 and
    51 (seed 11), 65, 46 and 65 (seed 12) and 62, 50 and 63 (seed 13) of
    100, the sparse sweep 5, 7 and 7 and the mixed sweep 6, 12 and 16.
    Never loosen it.
    """
    start = time.time()
    sweeps = {f"{m}x{m} {tag}": (ConstraintScenario(kind="subspace", n=m * m, m1=m, m2=m),
                                 tag, range(2 * m - 1, m * m + 1))
              for m, tag in ((3, COMPLEX_GENERIC), (4, COMPLEX_GENERIC), (3, REAL_GENERIC))}
    sweeps["3x4 sparsity s=(2,3)"] = (ConstraintScenario("sparsity", 6, 3, 4, 2, 3),
                                      COMPLEX_GENERIC, range(4, 7))
    sweeps["4x4 mixed s1=2"] = (ConstraintScenario("mixed", 8, 4, 4, 2),
                                COMPLEX_GENERIC, range(5, 9))
    rows = {}
    for seed in (11, 12, 13):
        for name, (sc, tag, sweep) in sweeps.items():
            rows[f"{name} seed {seed}"] = mc.run_phase_transition(
                sc, tag, sweep, trials=100, seed=seed, restarts=62, noise_level=0.0, R=None)
    ok = all(r["rate"] >= 0.99 for row in rows.values() for r in row if r["n"] >= r["d"])
    elapsed = time.time() - start
    report("gap regime (d <= n < m1*m2)", ok,
           "; ".join(f"{name}: {[r['rate'] for r in row]}" for name, row in rows.items())
           + f", {elapsed:.1f}s")
    assert ok


def test_criterion_6_certifier_soundness():
    start = time.time()
    sc4 = ConstraintScenario(kind="subspace", n=4, m1=2, m2=2)
    ens4 = build_ensemble(sc4, COMPLEX_GENERIC, 66)
    v4 = certify_strong(ens4, budget=100, tol=1e-6, rng=np.random.default_rng(0))

    sc1 = ConstraintScenario("subspace", 1, 2, 2)
    ens1 = build_ensemble(sc1, COMPLEX_GENERIC, 67)
    v1 = certify_strong(ens1, budget=100, tol=1e-6, rng=np.random.default_rng(68))
    verified = verify_counterexample(v1, ens1)

    elapsed = time.time() - start
    ok = (v4.status == CERTIFIED_UNIQUE and v1.status == COUNTEREXAMPLE_FOUND
          and verified and elapsed < 10.0)
    report("6 (certifier soundness)", ok,
           f"n=4 -> {v4.status}, n=1 -> {v1.status} "
           f"(witness machine-verified: {verified}), {elapsed:.1f}s")
    assert ok


def test_criterion_7_stability_consistency():
    start = time.time()
    sc = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)
    rows = mc.run_stability_sweep(sc, (0.3, 0.1, 0.03, 0.0), trials=1000, seed=77,
                                  restarts=62, R=None, mode="single_point", starts=3)
    details = []
    ok = True
    for row in rows:
        if row["delta"] == 0.0:
            zero_ok = row["violations"] == 0
            ok &= zero_ok
            details.append(f"delta=0: {row['violations']} violations")
            continue
        bound = row["bound_clamped"]
        if bound < 1.0:
            ok &= row["violation_rate"] <= bound
        details.append(f"delta={row['delta']}: rate {row['violation_rate']:.4f} "
                       f"<= bound {bound:.3g}")
    elapsed = time.time() - start
    ok &= elapsed < 600.0
    report("7 (stability consistency)", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_8_worker_determinism():
    start = time.time()
    sub = ConstraintScenario(kind="subspace", n=8, m1=2, m2=2)
    tkw = dict(trials=30, seed=88, restarts=62, noise_level=0.0, R=None)
    trows = mc.run_phase_transition(sub, COMPLEX_GENERIC, (2, 5, 8), **tkw)
    t1 = mc.sweep_csv(mc.TRANSITION_COLUMNS, trows)
    t1b = mc.sweep_csv(mc.TRANSITION_COLUMNS,
                       mc.run_phase_transition(sub, COMPLEX_GENERIC, (2, 5, 8), **tkw))
    # every trial replays alone: trial i of row r is recover_stack on the one
    # seed mix_seed(seed, r, i), the seed `blindid recover --seed` takes
    replay_ok = True
    for row_idx, row in enumerate(trows):
        sc_n = ConstraintScenario("subspace", row["n"], 2, 2)
        alone = [mc.recover_stack([sc_n], COMPLEX_GENERIC,
                                  [mix_seed(tkw["seed"], row_idx, i)],
                                  R=None, restarts=tkw["restarts"], noise_level=0.0)
                 for i in range(tkw["trials"])]
        replay_ok &= (row["successes"] == sum(ok[0] for _, _, ok in alone)
                      and row["mean_lifted_error"]
                      == float(np.mean([err[0] for _, err, _ in alone])))

    sc = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)
    skw = dict(trials=20, seed=89, restarts=62, R=None, mode="single_point", starts=3)
    srows = mc.run_stability_sweep(sc, (0.1, 0.0), **skw)
    s1 = mc.sweep_csv(mc.STABILITY_COLUMNS, srows)
    s1b = mc.sweep_csv(mc.STABILITY_COLUMNS, mc.run_stability_sweep(sc, (0.1, 0.0), **skw))
    # the stability sweep searches its trials as one batch: each trial
    # searched alone must give the same deviation bit for bit
    alone = []
    for i in range(skw["trials"]):
        trial_seed = mix_seed(skw["seed"], 0, i)
        ens, M0 = mc.draw_trial(sc, COMPLEX_UNIFORM_BALL, trial_seed, R=None)
        alone.append(deviation_alone(ens, M0, 0.1, skw["starts"],
                                     np.random.default_rng(mix_seed(trial_seed, 2))))
    batch_ok = (srows[0]["max_deviation"] == max(alone)
                and srows[0]["mean_lifted_error"] == float(np.mean(alone)))

    elapsed = time.time() - start
    ok = t1 == t1b and replay_ok and s1 == s1b and batch_ok
    report("8 (determinism)", ok,
           f"transition CSV identical across reruns: {t1 == t1b}; "
           f"transition trials replayed alone match their rows: {replay_ok}; "
           f"stability CSV identical across reruns: {s1 == s1b}; "
           f"trials searched alone match the batch: {batch_ok}, {elapsed:.1f}s")
    assert ok
