import json

import numpy as np
import pytest
from scipy import stats

from blindid.ensembles import (COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL,
                               REAL_GENERIC, REAL_UNIFORM_BALL,
                               ConstraintScenario, Ensemble, ScenarioError,
                               build_ensemble, mix_seed,
                               sample_uniform_complex_ball_batch,
                               sample_uniform_real_ball_batch)
from oracles import dft_matrix


class TestScenarioValidation:
    def test_valid_kinds(self):
        # any positive n, also at or below max(m1, m2)
        for n in (1, 2, 5):
            ConstraintScenario(kind="subspace", n=n, m1=2, m2=2)
            ConstraintScenario(kind="mixed", n=n, m1=4, m2=2, s1=1)
            ConstraintScenario(kind="sparsity", n=n, m1=4, m2=4, s1=1, s2=2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="bogus", n=5, m1=2, m2=2)

    def test_subspace_rejects_sparsity_levels(self):
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="subspace", n=5, m1=2, m2=2, s1=1)

    def test_mixed_requires_s1_within_m1(self):
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="mixed", n=5, m1=4, m2=2)
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="mixed", n=5, m1=4, m2=2, s1=5)

    def test_sparsity_requires_both_levels(self):
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="sparsity", n=5, m1=4, m2=4, s1=1)
        with pytest.raises(ScenarioError):
            ConstraintScenario(kind="sparsity", n=5, m1=4, m2=4, s1=1, s2=5)

    def test_dict_round_trip(self):
        sc = ConstraintScenario(kind="sparsity", n=6, m1=4, m2=3, s1=2, s2=1)
        assert ConstraintScenario.from_dict(sc.to_dict()) == sc


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)

    def test_distinct_across_indices(self):
        seeds = {mix_seed(0, i, j) for i in range(10) for j in range(100)}
        assert len(seeds) == 1000

    def test_distinct_across_masters(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)

    def test_64_bit_range(self):
        s = mix_seed(2**63, 5)
        assert 0 <= s < 2**64


class TestBallSampling:
    def test_norm_never_exceeds_radius(self):
        rng = np.random.default_rng(0)
        for m, R in ((1, 1.0), (3, 0.5), (5, 2.0)):
            batch = sample_uniform_complex_ball_batch(m, R, rng, 2000)
            assert np.linalg.norm(batch, axis=1).max() <= R * (1 + 1e-12)
            v = sample_uniform_real_ball_batch(m, R, rng, 2000)
            assert np.linalg.norm(v, axis=1).max() <= R * (1 + 1e-12)
            assert np.isrealobj(v)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        for sampler in (sample_uniform_complex_ball_batch, sample_uniform_real_ball_batch):
            with pytest.raises(ValueError):
                sampler(2, 0.0, rng, 1)
            with pytest.raises(ValueError):
                sampler(0, 1.0, rng, 1)

    def test_radial_cdf_is_power_law(self):
        # P[||a|| <= r] = (r/R)^(2m) for the uniform distribution on the
        # complex radius-R ball; Kolmogorov-Smirnov against the closed form
        rng = np.random.default_rng(1)
        for m in (1, 2):
            radii = np.linalg.norm(
                sample_uniform_complex_ball_batch(m, 1.0, rng, 20_000), axis=1)
            res = stats.kstest(radii, lambda r: np.clip(r, 0, 1) ** (2 * m))
            assert res.pvalue > 1e-4

    def test_second_moment_matches_exact_sampler(self):
        # E||a||^2 = m R^2/(m+1) for exact uniform sampling on the complex
        # ball (real dimension 2m); m=2, R=1 gives 2/3
        rng = np.random.default_rng(2)
        sq = np.linalg.norm(
            sample_uniform_complex_ball_batch(2, 1.0, rng, 100_000), axis=1) ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 2.0 / 3.0) <= 4 * se

    def test_isotropy(self):
        rng = np.random.default_rng(3)
        batch = sample_uniform_complex_ball_batch(3, 1.0, rng, 100_000)
        mean = batch.mean(axis=0)
        # per-coordinate SE of the mean is ~ sqrt(E|a_i|^2)/sqrt(T)
        se = np.sqrt((np.abs(batch) ** 2).mean()) / np.sqrt(batch.shape[0])
        assert np.linalg.norm(mean) <= 4 * se


SC = ConstraintScenario(kind="subspace", n=6, m1=2, m2=3)


class TestEnsembleBuild:
    @pytest.mark.parametrize("tag,R", [(COMPLEX_GENERIC, None),
                                       (COMPLEX_UNIFORM_BALL, 0.8),
                                       (REAL_GENERIC, None),
                                       (REAL_UNIFORM_BALL, 0.8)])
    def test_rows_match_matrices(self, tag, R):
        ens = build_ensemble(SC, tag, 11, R=R)
        F = dft_matrix(SC.n)
        assert np.linalg.norm(ens.a - (F @ ens.D).conj()) < 1e-12
        assert np.linalg.norm(ens.b - (F @ ens.E).conj()) < 1e-12

    @pytest.mark.parametrize("tag,R", [(COMPLEX_GENERIC, None),
                                       (COMPLEX_UNIFORM_BALL, 0.8),
                                       (REAL_GENERIC, None),
                                       (REAL_UNIFORM_BALL, 0.8)])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024])
    def test_fft_rows_match_dense_oracle(self, tag, R, n):
        sc = ConstraintScenario("subspace", n, 2, 3)
        ens = build_ensemble(sc, tag, 11, R=R)
        F = dft_matrix(n)
        for rows, M in ((ens.a, ens.D), (ens.b, ens.E)):
            assert np.linalg.norm(rows - (F @ M).conj()) <= 1e-12 * np.linalg.norm(rows)

    def test_same_seed_bit_identical(self):
        e1 = build_ensemble(SC, COMPLEX_UNIFORM_BALL, 5, R=1.0)
        e2 = build_ensemble(SC, COMPLEX_UNIFORM_BALL, 5, R=1.0)
        assert np.array_equal(e1.D, e2.D) and np.array_equal(e1.a, e2.a)

    def test_ball_rows_within_radius(self):
        ens = build_ensemble(SC, COMPLEX_UNIFORM_BALL, 5, R=0.7)
        assert np.linalg.norm(ens.a, axis=1).max() <= 0.7 * (1 + 1e-12)
        assert np.linalg.norm(ens.b, axis=1).max() <= 0.7 * (1 + 1e-12)

    def test_ball_tag_requires_radius(self):
        with pytest.raises(ValueError):
            build_ensemble(SC, COMPLEX_UNIFORM_BALL, 5)
        with pytest.raises(ValueError):
            build_ensemble(SC, COMPLEX_GENERIC, 5, R=1.0)

    def test_nan_radius_rejected(self):
        nan = float("nan")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="requires a positive ball radius"):
            build_ensemble(SC, COMPLEX_UNIFORM_BALL, 5, R=nan)
        for sample in (sample_uniform_complex_ball_batch, sample_uniform_real_ball_batch):
            with pytest.raises(ValueError, match="R must be positive"):
                sample(2, nan, rng, 3)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_ensemble(SC, "nope", 5)

    @pytest.mark.parametrize("tag", [REAL_GENERIC, REAL_UNIFORM_BALL])
    @pytest.mark.parametrize("n", [4, 5, 6, 1023, 1024])
    def test_real_matrices_and_conjugate_symmetry(self, tag, n):
        sc = ConstraintScenario(kind="subspace", n=n, m1=2, m2=2)
        R = 1.0 if tag == REAL_UNIFORM_BALL else None
        ens = build_ensemble(sc, tag, 9, R=R)
        assert np.isrealobj(ens.D) and np.isrealobj(ens.E)
        # 1-based a_j = conj(a_{n+2-j}) for 2 <= j <= n; 0-based a[j] vs a[n-j]
        for j in range(1, n):
            assert np.linalg.norm(ens.a[j] - ens.a[n - j].conj()) < 1e-12

    def test_real_even_n_has_real_extreme_rows(self):
        ens = build_ensemble(ConstraintScenario(kind="subspace", n=4, m1=2, m2=2),
                             REAL_UNIFORM_BALL, 3, R=1.0)
        assert np.abs(ens.a[0].imag).max() < 1e-12
        assert np.abs(ens.a[2].imag).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 1023, 1024])
    def test_real_ball_rows_are_drawn_free_and_completed(self, n):
        # rows 0 and n/2 are exactly real, rows n-j are exact conjugates of
        # rows j, every row lies in the ball, and the free rows differ
        R = 0.7
        ens = build_ensemble(ConstraintScenario("subspace", n, 2, 3),
                             REAL_UNIFORM_BALL, 5, R=R)
        for rows in (ens.a, ens.b):
            assert np.all(rows[0].imag == 0)
            if n % 2 == 0:
                assert np.all(rows[n // 2].imag == 0)
            j = np.arange(1, n)
            assert np.array_equal(rows[n - j], rows[j].conj())
            assert np.linalg.norm(rows, axis=1).max() <= R * (1 + 1e-12)
            free = rows[1:(n + 1) // 2]
            assert len({tuple(r) for r in free}) == len(free)

    def test_manifest_round_trip(self):
        ens = build_ensemble(SC, COMPLEX_UNIFORM_BALL, 17, R=0.9)
        again = Ensemble.from_manifest(json.loads(json.dumps(ens.to_manifest())))
        assert np.array_equal(ens.D, again.D)
        assert np.array_equal(ens.b, again.b)
