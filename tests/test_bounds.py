import math

import numpy as np
import pytest

from blindid import bounds
from blindid.ensembles import (COMPLEX_GENERIC, ConstraintScenario,
                               build_ensemble)
from blindid.lifting import LiftedMatrix


def subspace(n, m1, m2):
    return ConstraintScenario(kind="subspace", n=n, m1=m1, m2=m2)


class TestSampleComplexity:
    def test_per_kind_values(self):
        assert bounds.sample_complexity_d(subspace(10, 3, 4)) == 7
        assert bounds.sample_complexity_d(
            ConstraintScenario(kind="mixed", n=10, m1=6, m2=3, s1=2)) == 5
        assert bounds.sample_complexity_d(
            ConstraintScenario(kind="sparsity", n=10, m1=6, m2=6, s1=2, s2=3)) == 5

    def test_dimension_upper_is_doubled(self):
        assert bounds.minkowski_dim_upper(subspace(10, 2, 3)) == 10
        assert bounds.minkowski_dim_upper(
            ConstraintScenario(kind="sparsity", n=10, m1=4, m2=4, s1=1, s2=1)) == 4
        for sc in (subspace(9, 2, 4),
                   ConstraintScenario(kind="mixed", n=9, m1=5, m2=2, s1=3)):
            assert bounds.minkowski_dim_upper(sc) == 2 * bounds.sample_complexity_d(sc)


class TestVolumes:
    def test_complex_ball(self):
        assert np.isclose(bounds.volume_complex_ball(1, 1.0), math.pi)
        assert np.isclose(bounds.volume_complex_ball(2, 1.0), math.pi**2 / 2)
        assert bounds.volume_complex_ball(0, 5.0) == 1.0

    def test_real_ball(self):
        assert np.isclose(bounds.volume_real_ball(1, 1.0), 2.0)
        assert np.isclose(bounds.volume_real_ball(2, 1.0), math.pi)
        assert np.isclose(bounds.volume_real_ball(3, 2.0), 4 / 3 * math.pi * 8)
        assert bounds.volume_real_ball(0, 5.0) == 1.0

    def test_complex_equals_even_real_dimension(self):
        for m, R in ((1, 1.0), (3, 0.7)):
            assert np.isclose(bounds.volume_complex_ball(m, R),
                              bounds.volume_real_ball(2 * m, R))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bounds.volume_complex_ball(-1, 1.0)
        with pytest.raises(ValueError):
            bounds.volume_real_ball(2, 0.0)


class TestCovering:
    def test_examples(self):
        assert np.isclose(bounds.covering_bound("ball", 3, 0.5), 216.0)
        assert np.isclose(bounds.covering_bound("sparse_ball", 4, 1.0, s=2), 54.0)
        assert np.isclose(bounds.covering_bound("ball", 1, 3.0), 1.0)

    def test_sparse_requires_valid_s(self):
        with pytest.raises(ValueError):
            bounds.covering_bound("sparse_ball", 4, 0.5)
        with pytest.raises(ValueError):
            bounds.covering_bound("sparse_ball", 4, 0.5, s=5)
        with pytest.raises(ValueError):
            bounds.covering_bound("ball", 4, 0.0)
        with pytest.raises(ValueError):
            bounds.covering_bound("nope", 4, 0.5)

    def test_product_structure(self):
        # (3/rho)^(m1+m2) factors over ball dimensions
        for rho in (0.1, 0.5, 1.0):
            assert np.isclose(
                bounds.covering_bound("ball", 5, rho),
                bounds.covering_bound("ball", 2, rho) * bounds.covering_bound("ball", 3, rho))

    def test_no_overflow_at_large_dims(self):
        val = bounds.covering_bound("sparse_ball", 5000, 0.01, s=2500)
        assert val == math.inf or val > 0


class TestSmallBall:
    def test_complex_sharp_instance(self):
        assert np.isclose(bounds.small_ball_bound("complex", 1.0, 1, 1, 1, 1, 1), 1.0)
        rho = math.exp(-1)
        assert np.isclose(bounds.small_ball_bound("complex", rho, 1, 1, 1, 1, 1),
                          3 * math.exp(-2))

    def test_real_unit_instance(self):
        assert np.isclose(bounds.small_ball_bound("real", 1.0, 1, 1, 1, 1, 1), 1.0)

    def test_sharp_case_closed_form(self):
        for rho in (0.05, 0.1, 0.2):
            assert np.isclose(bounds.small_ball_bound("complex", rho, 1, 1, 1, 1, 1),
                              rho**2 * (1 + 2 * math.log(1 / rho)))

    def test_monotone_in_rho_and_ell(self):
        rhos = np.linspace(0.01, 0.9, 15)
        vals = [bounds.small_ball_bound("complex", r, 1, 1, 1, 2, 3) for r in rhos]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        ells = np.linspace(0.1, 1.0, 10)
        for field in ("real", "complex"):
            gs = [bounds.small_ball_bound(field, 0.05, e, 1, 1, 2, 2) for e in ells]
            assert all(b <= a for a, b in zip(gs, gs[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bounds.small_ball_bound("complex", 0.1, 2.0, 1.0, 1, 1, 1)
        with pytest.raises(ValueError):
            bounds.small_ball_bound("quaternion", 0.1, 1, 1, 1, 1, 1)


class TestStabilityConstants:
    def test_log_factor_constant(self):
        assert np.isclose(bounds.constant_C(4, 2, 2, 1.0, 4 / 3), 2592.0)
        assert np.isclose(bounds.constant_C(4, 2, 2, 1.0, 4 / (3 * math.e)), 7776.0)
        assert np.isclose(bounds.constant_C(4, 1, 1, 1.0, 4 / 3), 648.0)

    def test_unnormalized_variant_consistency(self):
        # the frequency-normalized printed form, constant_C at n = 1, agrees
        # under delta -> delta/sqrt(n)
        for n in (2, 5, 16):
            for delta in (0.01, 0.3, 2.0):
                assert np.isclose(
                    bounds.constant_C(n, 2, 3, 1.1, delta),
                    bounds.constant_C(1, 2, 3, 1.1, delta / math.sqrt(n)))

    def test_prefactor_composition(self):
        sc = subspace(5, 2, 2)
        delta = 2 * math.sqrt(5) / 3
        C = bounds.constant_C(5, 2, 2, 1.0, delta)
        expected = math.log(C**5 / 5)
        assert np.isclose(bounds.log_stability_prefactor(sc, "single_point", 1.0, delta),
                          expected)
        expected_u = math.log((4 * C) ** 5 / 5 ** (5 - 8))
        assert np.isclose(bounds.log_stability_prefactor(sc, "uniform", 1.0, delta),
                          expected_u)

    def test_binomial_multipliers(self):
        scs = ConstraintScenario(kind="sparsity", n=9, m1=4, m2=4, s1=2, s2=2)
        scm = ConstraintScenario(kind="mixed", n=9, m1=4, m2=2, s1=2)
        base_s = subspace(9, 4, 4)
        # same d would be needed for a clean ratio; compare the multiplier in
        # log space directly instead
        delta = 0.5
        for sc, power, nterms in ((scs, 2, 2), (scm, 2, 1)):
            got = bounds.log_stability_prefactor(sc, "single_point", 1.0, delta)
            d = bounds.sample_complexity_d(sc)
            C = bounds.constant_C(sc.n, sc.m1, sc.m2, 1.0, delta)
            binom = math.comb(4, 2) ** (power * nterms)
            want = math.log(binom) + sc.n * math.log(C) - (sc.n - d) * math.log(sc.n)
            assert np.isclose(got, want)
        assert bounds.log_stability_prefactor(base_s, "single_point", 1.0, delta) > 0

    def test_rejects_nonpositive_log_factor(self):
        # large delta drives C below zero; the prefactor is then undefined
        sc = subspace(4, 1, 1)
        with pytest.raises(ValueError):
            bounds.log_stability_prefactor(sc, "single_point", 1.0, 100.0)


class TestFailureBound:
    def test_table_composition(self):
        sc = subspace(5, 2, 2)
        delta = 2 * math.sqrt(5) / 3
        C = bounds.constant_C(5, 2, 2, 1.0, delta)
        raw, clamped = bounds.failure_prob_bound(sc, "single_point", 1.0, delta, 10.0)
        expected = (C**5 / 5) * delta**2 * 1e-10
        assert np.isclose(raw, expected, rtol=1e-10)
        assert clamped == min(1.0, expected)

    def test_vanishes_with_delta(self):
        sc = subspace(8, 2, 2)
        raw, _ = bounds.failure_prob_bound(sc, "single_point", 1.0, 1e-9, 0.5)
        assert raw < 1e-12

    def test_increasing_in_delta(self):
        sc = subspace(10, 2, 2)
        deltas = np.linspace(0.01, 0.5, 10)
        raws = [bounds.failure_prob_bound(sc, "single_point", 1.0, d, 0.5)[0]
                for d in deltas]
        assert all(b > a for a, b in zip(raws, raws[1:]))

    def test_decreasing_in_n_past_threshold(self):
        raws = [bounds.failure_prob_bound(subspace(n, 2, 2), "single_point",
                                          1.0, 0.05, 2000.0)[0]
                for n in range(6, 14)]
        assert all(b < a for a, b in zip(raws, raws[1:]))

    def test_preconditions_name_the_hypothesis(self):
        with pytest.raises(ValueError, match="n > d"):
            bounds.failure_prob_bound(subspace(4, 2, 2), "single_point", 1, 0.1, 0.5)
        with pytest.raises(ValueError, match="n > 2d"):
            bounds.failure_prob_bound(subspace(8, 2, 2), "uniform", 1, 0.1, 0.5)

    def test_clamped_in_unit_interval(self):
        sc = subspace(5, 2, 2)
        raw, clamped = bounds.failure_prob_bound(sc, "single_point", 1.0, 0.9, 0.1)
        assert raw > 1.0
        assert clamped == 1.0


class TestEpsilonOfDelta:
    def test_unit_prefactor_instance(self):
        # n = 8, d = 4, R = 1: eps = C'^(1/16) delta^(1/4)
        sc = subspace(8, 2, 2)
        for delta in (0.01, 1.0):
            log_C = bounds.log_stability_prefactor(sc, "single_point", 1.0, delta)
            assert np.isclose(bounds.epsilon_of_delta(sc, "single_point", 1.0, delta),
                              math.exp(log_C / 16) * delta**0.25)

    def test_vanishes_with_delta(self):
        sc = subspace(8, 2, 2)
        e1 = bounds.epsilon_of_delta(sc, "single_point", 1.0, 1e-20)
        e2 = bounds.epsilon_of_delta(sc, "single_point", 1.0, 1e-30)
        assert e2 < e1 < 1e-1

    def test_uniform_mode_prefactor_of_two(self):
        # n = 12, d = 4, delta = R = 1: eps = 2 C''^(1/24)
        sc = subspace(12, 2, 2)
        log_C = bounds.log_stability_prefactor(sc, "uniform", 1.0, 1.0)
        assert np.isclose(bounds.epsilon_of_delta(sc, "uniform", 1.0, 1.0),
                          2.0 * math.exp(log_C / 24))

    def test_failure_bound_at_eps_delta_collapses(self):
        # raw bound evaluated at eps(delta) reduces to (delta/R^2)^(n-d)
        sc = subspace(10, 2, 2)
        for delta in (0.3, 0.1, 0.03):
            eps = bounds.epsilon_of_delta(sc, "single_point", 1.0, delta)
            raw, _ = bounds.failure_prob_bound(sc, "single_point", 1.0, delta, eps)
            assert np.isclose(raw, delta ** (10 - 4), rtol=1e-8)


class TestSnr:
    def test_ratio_instance(self):
        sc = subspace(5, 2, 2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 1)
        M0 = np.diag([1.0, 0])[:2, :2]
        M = M0 + 0.1 * np.outer([0, 1.0], [0, 1.0])
        rsnr, msnr = bounds.snr_metrics(M0, M, ens)
        assert np.isclose(rsnr, 100.0)
        assert msnr > 0

    def test_scaled_copy(self):
        sc = subspace(5, 2, 2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 2)
        M0 = LiftedMatrix.from_factors([1.0, 0], [1.0, 0]).M
        rsnr, msnr = bounds.snr_metrics(M0, 2 * M0, ens)
        assert np.isclose(rsnr, 1.0)
        assert np.isclose(msnr, 1.0)

    def test_identical_matrices_give_infinity(self):
        sc = subspace(5, 2, 2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 3)
        M0 = np.eye(2)
        rsnr, msnr = bounds.snr_metrics(M0, M0, ens)
        assert rsnr == math.inf and msnr == math.inf

    def test_frequency_time_consistency(self):
        from blindid.lifting import apply_A
        sc = subspace(6, 2, 3)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 4)
        rng = np.random.default_rng(5)
        M0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        M = M0 + rng.standard_normal((2, 3))
        _, msnr = bounds.snr_metrics(M0, M, ens)
        freq = (np.linalg.norm(apply_A(ens, M0)) ** 2
                / np.linalg.norm(apply_A(ens, M) - apply_A(ens, M0)) ** 2)
        assert np.isclose(msnr, freq, rtol=1e-10)


class TestReport:
    def test_full_report(self):
        rep = bounds.make_report(subspace(12, 2, 2), delta=0.05)
        assert rep["d"] == 4 and rep["dim_upper"] == 8
        assert np.isclose(rep["alpha"], 1 - 4 / 12)
        assert np.isclose(rep["beta"], 1 - 8 / 12)
        assert rep["C_prime"] is not None and rep["C_dblprime"] is not None
        assert 0 <= rep["weak_failure_bound"] <= 1
        assert set(rep) >= {"C", "alpha", "epsilon_single"}

    def test_stability_fields_none_below_threshold(self):
        rep = bounds.make_report(subspace(5, 2, 2))
        assert rep["C_prime"] is not None
        assert rep["C_dblprime"] is None and rep["epsilon_uniform"] is None

    def test_query_validation(self):
        with pytest.raises(ValueError):
            bounds.make_report(subspace(5, 2, 2), delta=0.0)
        with pytest.raises(ValueError):
            bounds.make_report(subspace(5, 2, 2), ell=2.0, L=1.0)

    @pytest.mark.parametrize("name", ["delta", "epsilon", "R", "rho", "ell", "L"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            bounds.make_report(subspace(12, 2, 2), **{name: float("nan")})


def test_closed_forms_reject_nan():
    nan = float("nan")
    sc = subspace(12, 2, 2)
    for call in (lambda: bounds.volume_complex_ball(2, nan),
                 lambda: bounds.volume_real_ball(2, nan),
                 lambda: bounds.covering_bound("ball", 2, nan),
                 lambda: bounds.small_ball_bound("complex", nan, 1.0, 1.0, 1.0, 2, 2),
                 lambda: bounds.constant_C(12, 2, 2, 1.0, nan),
                 lambda: bounds.failure_prob_bound(sc, "single_point", 1.0, 0.1, nan),
                 lambda: bounds.epsilon_of_delta(sc, "single_point", nan, 0.1)):
        with pytest.raises(ValueError):
            call()
