import itertools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import oracles
from blindid.ensembles import (COMPLEX_GENERIC, REAL_GENERIC, REAL_UNIFORM_BALL,
                               ConstraintScenario, Ensemble, _rows_from_matrix,
                               build_ensemble)
from blindid import recovery
from blindid.lifting import LiftedMatrix, apply_A, as_matrix, operator_matrix, support_rows
from blindid.mc import _draw_trials as draw_trials
from blindid.mc import draw_trial
from blindid.recovery import (CERTIFIED_UNIQUE, COUNTEREXAMPLE_FOUND,
                              HEURISTICALLY_UNIQUE, EnumerationCapError,
                              IdentifiabilityVerdict, RowStack,
                              admissible_supports, align_and_distance,
                              certify_strong, certify_weak, is_recovered,
                              min_scaled_distance, solve_fixed_support,
                              solve_sparse_enumerate, verify_counterexample)
from blindid.recovery import _embed, _lm, _residual_floor


def subspace(n, m1=2, m2=2):
    return ConstraintScenario(kind="subspace", n=n, m1=m1, m2=m2)


# The fit of one trial: its lifted matrix, residual, lifted error against
# the truth (None without one), support (its row and column indices, as the
# lists `recover` prints) and random starts.
Solved = namedtuple("Solved", "M_hat residual lifted_error support restarts_used")


def solve_one(solver, ens, z, *supports, restarts, rng, truth=None):
    """solver on the stack of one trial, ens with measurements z: the
    trial's fit, scored against truth."""
    stack = replace(ens, seed=(ens.seed,), D=ens.D[None], E=ens.E[None],
                    a=ens.a[None], b=ens.b[None])
    fit = solver(RowStack((stack,)), [z[None]], *supports, restarts, [rng])
    M_hat = LiftedMatrix(fit.X[0], fit.Y[0])
    return Solved(M_hat, float(fit.residual[0]),
                  None if truth is None else align_and_distance(M_hat, truth),
                  tuple(S[0].tolist() for S in fit.supports), fit.restarts_used)


def random_factors(sc, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sc.m1) + 1j * rng.standard_normal(sc.m1)
    y = rng.standard_normal(sc.m2) + 1j * rng.standard_normal(sc.m2)
    return LiftedMatrix(x, y)


class TestSupportEnumeration:
    @pytest.mark.parametrize("sc", [
        subspace(5, 3, 4),
        ConstraintScenario("mixed", 5, 5, 3, 2),
        ConstraintScenario("sparsity", 5, 4, 5, 2, 3),
        ConstraintScenario("sparsity", 5, 6, 1, 3, 1),
    ], ids=lambda sc: f"{sc.kind}-{sc.m1}x{sc.m2}")
    def test_rows_are_the_pairs_in_lexicographic_order(self, sc):
        # row p of (S1, S2) is the p-th pair of the product of the
        # combinations of each side, as (P, k1) and (P, k2) intp arrays
        (k1, k2), (S1, S2) = sc.support_sizes, admissible_supports(sc)
        pairs = list(itertools.product(itertools.combinations(range(sc.m1), k1),
                                       itertools.combinations(range(sc.m2), k2)))
        assert S1.shape == (len(pairs), k1) and S2.shape == (len(pairs), k2)
        assert S1.dtype == S2.dtype == np.intp
        assert list(zip(map(tuple, S1.tolist()), map(tuple, S2.tolist()))) == pairs

    def test_subspace_single_support(self):
        S1, S2 = admissible_supports(subspace(5))
        assert S1.tolist() == S2.tolist() == [[0, 1]]

    def test_sparsity_counts_and_order(self):
        sc = ConstraintScenario(kind="sparsity", n=5, m1=3, m2=3, s1=1, s2=2)
        S1, S2 = admissible_supports(sc)
        supports = list(zip(map(tuple, S1.tolist()), map(tuple, S2.tolist())))
        assert len(supports) == math.comb(3, 1) * math.comb(3, 2)
        assert supports == sorted(supports)
        assert supports[0] == ((0,), (0, 1))

    def test_mixed_fixes_filter_support(self):
        sc = ConstraintScenario(kind="mixed", n=5, m1=4, m2=2, s1=2)
        S1, S2 = admissible_supports(sc)
        assert len(S1) == math.comb(4, 2)
        assert (S2 == [0, 1]).all()

    def test_cap_enforced(self):
        for sc in (ConstraintScenario(kind="sparsity", n=5, m1=30, m2=30, s1=5, s2=5),
                   ConstraintScenario(kind="mixed", n=5, m1=40, m2=2, s1=10)):
            with pytest.raises(EnumerationCapError, match="exceed the cap of 100000"):
                admissible_supports(sc)


class TestSolveFixedSupport:
    def test_least_squares_path_is_exact(self):
        sc = subspace(5)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 1)
        M0 = random_factors(sc, 2)
        res = solve_one(solve_fixed_support, ens, apply_A(ens, M0), [range(2)], [range(2)],
                        restarts=0, rng=np.random.default_rng(0))
        assert res.lifted_error is None
        assert align_and_distance(res.M_hat, M0) < 1e-8
        assert res.residual < 1e-10

    def test_zero_measurements_give_zero(self):
        sc = subspace(5)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 1)
        res = solve_one(solve_fixed_support, ens, np.zeros(5), [range(2)], [range(2)],
                        restarts=0, rng=np.random.default_rng(0))
        assert np.linalg.norm(res.M_hat.M) == 0.0
        assert res.residual == 0.0

    def test_alternating_minimization_path(self):
        # n=3 < |S1||S2|=4 forces the rank-1 factor branch, the
        # Levenberg-Marquardt kernel with restarts (underdetermined regime:
        # convergence to the global optimum is not guaranteed, only
        # best-of-restarts behavior)
        sc = subspace(3)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 4)
        M0 = random_factors(sc, 5)
        z = apply_A(ens, M0)
        res0 = solve_one(solve_fixed_support, ens, z, [range(2)], [range(2)],
                         restarts=0, rng=np.random.default_rng(0))
        res = solve_one(solve_fixed_support, ens, z, [range(2)], [range(2)],
                        restarts=10, rng=np.random.default_rng(6), truth=M0)
        assert res.residual <= res0.residual
        assert res.restarts_used == 0  # the spectral start fits exactly
        assert res.lifted_error is not None

    def test_alternating_minimization_converges_from_truth(self):
        sc = subspace(3)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 4)
        M0 = random_factors(sc, 5)
        z = apply_A(ens, M0)
        _, _, residual = _lm(ens.a.conj()[None], ens.b.conj()[None], z[None], M0.x[None],
                             _residual_floor(z[None]))
        assert residual.shape == (1,) and residual[0] < 1e-10

    def test_residual_reproducible_from_solution(self):
        sc = subspace(5)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 7)
        z = np.random.default_rng(8).standard_normal(5) + 0j
        res = solve_one(solve_fixed_support, ens, z, [range(2)], [range(2)],
                        restarts=0, rng=np.random.default_rng(0))
        again = np.linalg.norm(apply_A(ens, res.M_hat) - z)
        assert abs(again - res.residual) < 1e-12

    def test_empty_support_rejected(self):
        # so are duplicated, negative and out-of-range indices, on either
        # side and in any row of a stack of supports, before any solve
        ens = build_ensemble(subspace(5), COMPLEX_GENERIC, [1])
        for bad in ([[]], [[0, 0]], [[-1]], [[2]], [[0, 1], [1, 1]]):
            for supports in ((bad, [range(2)] * len(bad)), ([range(2)] * len(bad), bad)):
                with pytest.raises(ValueError, match="distinct indices in 0..1"):
                    solve_fixed_support(RowStack((ens,)), [np.zeros((1, 5))], *supports, 0,
                                        [np.random.default_rng(0)])

    def test_supports_are_index_arrays(self):
        # supports come as (P, k) arrays only, with as many row supports
        # as column supports
        ens = build_ensemble(subspace(5), COMPLEX_GENERIC, [1])
        for supports in ((range(2), [range(2)]), ([range(2)], range(2)),
                         ([[0]], [[0], [1]])):
            with pytest.raises(ValueError, match=r"\(P, k\) index arrays"):
                solve_fixed_support(RowStack((ens,)), [np.zeros((1, 5))], *supports, 0,
                                    [np.random.default_rng(0)])

    def test_negative_restarts_rejected(self):
        ens = build_ensemble(subspace(5), COMPLEX_GENERIC, [1])
        with pytest.raises(ValueError, match="restarts must be >= 0, got -1"):
            solve_fixed_support(RowStack((ens,)), [np.zeros((1, 5))], [range(2)], [range(2)], -1,
                                [np.random.default_rng(0)])

    def test_lone_ensemble_rejected(self):
        # the solvers take stacks only, with one row of measurements per trial
        ens = build_ensemble(subspace(5), COMPLEX_GENERIC, 1)
        rng = [np.random.default_rng(0)]
        stack = build_ensemble(subspace(5), COMPLEX_GENERIC, [1])
        for solve_on, z in ((ens, np.zeros(5)), (stack, np.zeros(5)),
                            (stack, np.zeros((2, 5)))):
            with pytest.raises(ValueError, match="stack of T trials"):
                solve_fixed_support(RowStack((solve_on,)), [z], [range(2)], [range(2)], 0, rng)
            with pytest.raises(ValueError, match="stack of T trials"):
                solve_sparse_enumerate(RowStack((solve_on,)), [z], 0, rng)
        # and one generator per trial, on least squares and on the kernel,
        # also where no random start would read one
        for n in (5, 3):
            stack = build_ensemble(subspace(n), COMPLEX_GENERIC, [1, 2])
            for rngs in ([], rng, rng * 3):
                with pytest.raises(ValueError, match="one generator per trial"):
                    solve_fixed_support(RowStack((stack,)), [np.zeros((2, n))], [range(2)],
                                        [range(2)], 0, rngs)
                with pytest.raises(ValueError, match="one generator per trial"):
                    solve_sparse_enumerate(RowStack((stack,)), [np.zeros((2, n))], 4, rngs)

    def test_solution_vanishes_off_support(self):
        sc = ConstraintScenario(kind="sparsity", n=6, m1=4, m2=4, s1=2, s2=2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 9)
        z = np.random.default_rng(10).standard_normal(6) + 0j
        res = solve_one(solve_fixed_support, ens, z, [[1, 3]], [[0, 2]],
                        restarts=0, rng=np.random.default_rng(0))
        assert np.all(res.M_hat.x[[0, 2]] == 0)
        assert np.all(res.M_hat.y[[1, 3]] == 0)


def _stacked_row(sc, trials, seed, noise=0.0):
    """T trials of sc as one stacked ensemble, the measurements of planted
    random factors, trial t's zero off admissible support t mod P (plus
    complex noise of that scale), and each trial's ensemble."""
    rng = np.random.default_rng(seed)
    S1, S2 = admissible_supports(sc)
    lone = [build_ensemble(sc, COMPLEX_GENERIC, seed + t) for t in range(trials)]
    z = []
    for t, ens in enumerate(lone):
        M = random_factors(sc, seed + 100 + t).M
        off = np.ones(M.shape, dtype=bool)
        off[np.ix_(S1[t % len(S1)], S2[t % len(S1)])] = False
        M[off] = 0
        z.append(apply_A(ens, M))
    z = np.array(z)
    z += noise * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))
    return build_ensemble(sc, COMPLEX_GENERIC, range(seed, seed + trials)), z, lone


def _embed_support(M, rows, cols):
    out = np.zeros((4, 4), dtype=complex)
    out[np.ix_(rows, cols)] = M
    return out


class TestStackedKernel:
    def test_lm_slots_do_not_depend_on_the_stack(self):
        # each slot equals a run on its own, whatever the stack size and the
        # slot's position in it; the even slots measure a rank-1 matrix on
        # their support and fit it exactly, the odd ones cannot
        sc = ConstraintScenario(kind="sparsity", n=5, m1=4, m2=4, s1=2, s2=2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 41)
        rng = np.random.default_rng(42)
        T = 9
        rows = np.array([rng.choice(4, 2, replace=False) for _ in range(T)])
        cols = np.array([rng.choice(4, 2, replace=False) for _ in range(T)])
        aS, bS = support_rows(ens, rows, cols)
        z = rng.standard_normal((T, 5)) + 1j * rng.standard_normal((T, 5))
        for t in range(0, T, 2):
            M = random_factors(ConstraintScenario("subspace", 5, 2, 2), t).M
            z[t] = apply_A(ens, _embed_support(M, rows[t], cols[t]))
        X0 = rng.standard_normal((T, 2)) + 1j * rng.standard_normal((T, 2))
        X, Y, res = _lm(aS, bS, z, X0, _residual_floor(z))
        Xr, Yr, resr = _lm(aS[::-1], bS[::-1], z[::-1], X0[::-1], _residual_floor(z[::-1]))
        for t in range(T):
            one = slice(t, t + 1)
            x1, y1, r1 = _lm(aS[one], bS[one], z[one], X0[one], _residual_floor(z[one]))
            for got in ((X[t], Y[t], res[t]), (Xr[T - 1 - t], Yr[T - 1 - t], resr[T - 1 - t])):
                assert np.array_equal(got[0], x1[0]) and np.array_equal(got[1], y1[0])
                assert got[2] == r1[0]
        assert np.all(res[::2] <= 1e-12) and np.all(res[1::2] > 1e-3)

    @pytest.mark.parametrize("sc, used, noise", [
        (subspace(6, 3, 3), 2, 0.0),  # one support
        (subspace(6, 3, 3), 2, 0.05),
        (ConstraintScenario("sparsity", 5, 3, 4, 2, 3), 0, 0.0),  # 12 supports
        (ConstraintScenario("sparsity", 5, 3, 4, 2, 3), 0, 0.05),
    ], ids=["0.0", "0.05", "sparsity-3x4-0.0", "sparsity-3x4-0.05"])
    def test_row_of_trials_matches_lone_solves(self, sc, used, noise):
        # a 20-trial row with 21 starts per trial and support (up to 420
        # slots on one support, 5040 on 12): each trial of the stacked solve has the
        # bits of its lone solve and leaves its generator where the lone
        # solve does. Noiseless, a trial stops after the first wave in
        # which a slot reaches the residual floor, so the row runs the
        # starts its slowest trial needs; noisy, none reaches it and every
        # trial runs the whole budget
        ens, z, lone = _stacked_row(sc, 20, 50, noise)
        S1, S2 = admissible_supports(sc)
        rngs = [[np.random.default_rng(60 + t) for t in range(20)] for _ in range(2)]
        fit = solve_fixed_support(RowStack((ens,)), [z], S1, S2, 20, rngs[0])
        assert fit.X.shape == (20, 3) and fit.restarts_used == (20 if noise else used)
        for t, ens_t in enumerate(lone):
            alone = solve_one(solve_fixed_support, ens_t, z[t], S1, S2,
                              restarts=20, rng=rngs[1][t])
            assert np.array_equal(np.outer(fit.X[t], fit.Y[t]), alone.M_hat.M)
            assert fit.residual[t] == alone.residual
            assert tuple(S[t].tolist() for S in fit.supports) == alone.support
            assert rngs[0][t].bit_generator.state == rngs[1][t].bit_generator.state
        floor = recovery.LM_RESIDUAL_FLOOR * np.linalg.norm(z, axis=1)
        if noise:
            assert np.all(fit.residual > floor)
        else:
            assert np.all(fit.residual <= floor)

    @pytest.mark.parametrize("sc", [subspace(9, 3, 3),
                                    ConstraintScenario("sparsity", 6, 3, 4, 2, 3)],
                             ids=["subspace-3x3", "sparsity-3x4"])
    def test_row_stack_trials_keep_their_lone_bits(self, sc):
        # the kernel rows of a sweep, n = 2 .. k1*k2 - 1 with noise in every
        # other row, solved as one RowStack: each trial is zero-padded to the
        # solve length k1*k2 - 1, so it has the bits of its lone solve and
        # leaves its generator where the lone solve does
        k = math.prod(sc.support_sizes)
        rows = [_stacked_row(sc.with_n(n), 4, 50 + n, 0.05 * (n % 2)) for n in range(2, k)]
        S1, S2 = admissible_supports(sc)
        T = 4 * len(rows)
        rngs = [[np.random.default_rng(60 + t) for t in range(T)] for _ in range(2)]
        stack = RowStack(tuple(ens for ens, _, _ in rows))
        assert stack.n == k - 1 and stack.scenario == sc.with_n(k - 1)
        fit = solve_fixed_support(stack, [z for _, z, _ in rows], S1, S2, 6, rngs[0])
        trials = [(ens_t, z_t) for _, z, lone in rows for ens_t, z_t in zip(lone, z)]
        alone = [solve_one(solve_fixed_support, ens_t, z_t, S1, S2, restarts=6, rng=rng)
                 for (ens_t, z_t), rng in zip(trials, rngs[1], strict=True)]
        for t, one in enumerate(alone):
            assert np.array_equal(np.outer(fit.X[t], fit.Y[t]), one.M_hat.M)
            assert fit.residual[t] == one.residual
            assert tuple(S[t].tolist() for S in fit.supports) == one.support
            assert rngs[0][t].bit_generator.state == rngs[1][t].bit_generator.state
        assert fit.restarts_used == max(one.restarts_used for one in alone) > 0

    def test_row_stack_takes_one_scenario_at_one_solve_length(self):
        # kernel rows share the solve length k1*k2 - 1 and least-squares
        # rows theirs, n; rows of one n solve row by row, with the bits of
        # their own solves
        def stack(scs):
            return RowStack(tuple(build_ensemble(sc, COMPLEX_GENERIC, [1, 2])
                                           for sc in scs))

        for scs in ((subspace(8, 3, 3), subspace(9, 3, 3)),
                    (subspace(9, 3, 3), subspace(10, 3, 3)),
                    (subspace(5, 3, 3), subspace(5, 3, 4)),
                    (subspace(5, 3, 3), ConstraintScenario("mixed", 5, 3, 3, 3))):
            with pytest.raises(ValueError, match="one scenario at sample counts of one"):
                stack(scs)
        ens = stack((subspace(9, 3, 3), subspace(9, 3, 3)))
        z = [np.random.default_rng(t).standard_normal((2, 9)) + 0j for t in range(2)]
        S1, S2 = admissible_supports(subspace(9, 3, 3))
        fit = solve_fixed_support(ens, z, S1, S2, 0, [None] * 4)
        for e, zr, t in zip(ens.ensembles, z, (0, 2)):
            own = solve_fixed_support(RowStack((e,)), [zr], S1, S2, 0, [None] * 2)
            assert np.array_equal(fit.X[t:t + 2], own.X) and np.array_equal(fit.Y[t:t + 2], own.Y)
            assert np.array_equal(fit.residual[t:t + 2], own.residual)
        with pytest.raises(ValueError, match="one generator per trial, 4, got 2"):
            solve_fixed_support(ens, z, S1, S2, 0, [None] * 2)

    def test_empty_row_stack_rejected(self):
        with pytest.raises(ValueError, match="a stack needs at least one row"):
            RowStack(())

    @pytest.mark.parametrize("ns", [(9, 9), (5, 7)], ids=["least-squares", "kernel"])
    def test_a_solve_reads_each_rows_supports_once(self, ns, monkeypatch):
        # a solve assembles every row's restricted rows once, and least
        # squares, its residual and the kernel all read that one assembly
        read = []
        real = recovery.support_rows
        monkeypatch.setattr(recovery, "support_rows",
                            lambda ens, *args: read.append(ens.n) or real(ens, *args))
        stack = RowStack(tuple(build_ensemble(subspace(n, 3, 3), COMPLEX_GENERIC, [1, 2])
                               for n in ns))
        z = [np.random.default_rng(n).standard_normal((2, n)) + 0j for n in ns]
        S1, S2 = admissible_supports(subspace(9, 3, 3))
        solve_fixed_support(stack, z, S1, S2, 2, [np.random.default_rng(t) for t in range(4)])
        assert read == list(ns)

    def test_zero_rows_are_inert(self):
        # the kernel on rows zero-padded from n = 7 to 8 fits what it fits on
        # the unpadded rows from the same starts: a zero row adds nothing to
        # the residual, J^H J or J^H r, and only the order of the sums
        # changes, so the fits agree to rounding, not bit for bit. Exact fits
        # agree to 1e-9; a noisy fit stops once its relative decrease is at
        # most LM_RTOL = 1e-12, which leaves its point uncertain to about
        # sqrt(1e-12) along the flat directions, while its residual, at a
        # minimum, moves only to second order
        for noise, point_tol in ((0.0, 1e-9), (0.05, 1e-6)):
            ens, z, _ = _stacked_row(subspace(7, 3, 3), 6, 90, noise)
            aS, bS = (np.ascontiguousarray(rows) for rows in support_rows(ens))
            X0 = np.random.default_rng(91).standard_normal((6, 3)) + 0j
            pad = [np.concatenate((arr, np.zeros((6, 1) + arr.shape[2:], dtype=complex)),
                                  axis=1) for arr in (aS, bS, z)]
            (X, Y, res), (Xp, Yp, resp) = (_lm(*arrays, X0, _residual_floor(z))
                                           for arrays in ((aS, bS, z), pad))
            M, Mp = X[:, :, None] * Y[:, None, :], Xp[:, :, None] * Yp[:, None, :]
            assert np.allclose(Mp, M, rtol=0, atol=point_tol * np.abs(M).max())
            assert np.allclose(resp, res, rtol=1e-9, atol=1e-13)
            fit = res <= _residual_floor(z)
            assert np.array_equal(resp <= _residual_floor(z), fit)
            assert fit.all() == (noise == 0.0) and fit.any() == (noise == 0.0)

    def test_waves_and_kernel_read_one_floor(self, monkeypatch):
        # each trial's residual floor is computed once, from its measurements
        # without the padding: _lm stops a trial's slots at the floor that
        # the test between waves drops the trial at. Rows n = 5, 6, 7 of 3x3
        # are padded to 8; noisy trials run every wave
        rows = [_stacked_row(subspace(n, 3, 3), 6, 70 + n, 0.05 * (n == 6)) for n in (5, 6, 7)]
        z = [zr for _, zr, _ in rows]
        waves = []
        real = recovery._lm

        def spy(aS, bS, z_tilde, X0, floor, group):
            waves.append((floor, group, *real(aS, bS, z_tilde, X0, floor, group)))
            return waves[-1][2:]

        monkeypatch.setattr(recovery, "_lm", spy)
        S1, S2 = admissible_supports(subspace(9, 3, 3))
        fit = solve_fixed_support(RowStack(tuple(ens for ens, _, _ in rows)), z,
                                  S1, S2, 14, [np.random.default_rng(t) for t in range(18)])
        floor = np.concatenate([recovery._residual_floor(zr) for zr in z])
        live = np.arange(18)
        for slots, group, _, _, residual in waves:
            assert np.array_equal(slots, np.repeat(floor[live], group))
            live = live[~(residual.reshape(len(live), group)
                          <= floor[live, None]).any(1)]
        assert [group for _, group, *_ in waves] == [1, 2, 4, 8]
        assert set(live) == set(range(6, 12))  # the noisy row fits no trial
        assert np.array_equal(fit.residual <= floor, ~np.isin(np.arange(18), live))

    def test_fitted_row_runs_one_wave(self, monkeypatch):
        # every trial's spectral start fits on its planted support, so the
        # kernel runs once, on the spectral start of every (trial, support),
        # and the random starts are neither drawn nor run. A trial's slots on
        # the 11 other supports stop with its fit: on their own, some run
        # to LM_MAX_ITER = 200 steps. No trial reaches a random start, so
        # no generator is drawn from
        sc = ConstraintScenario("sparsity", 5, 3, 4, 2, 3)
        ens, z, _ = _stacked_row(sc, 20, 50)
        S1, S2 = admissible_supports(sc)
        calls, solves = [], []
        real, real_solve = recovery._lm, recovery._damped_solve
        monkeypatch.setattr(recovery, "_lm",
                            lambda aS, *args: calls.append(len(aS)) or real(aS, *args))
        monkeypatch.setattr(recovery, "_damped_solve",
                            lambda *args: solves.append(1) or real_solve(*args))
        rngs = [np.random.default_rng(60 + t) for t in range(20)]
        fit = solve_fixed_support(RowStack((ens,)), [z], S1, S2, 20, rngs)
        assert calls == [20 * 12] and fit.restarts_used == 0
        assert len(solves) <= 50  # the first y solve, then one per step
        for t, g in enumerate(rngs):
            assert g.bit_generator.state == np.random.default_rng(60 + t).bit_generator.state

    def test_scalar_factor_takes_one_solve(self, monkeypatch):
        # |S1| = 1 or |S2| = 1: the rank-1 constraint is void and one linear
        # solve (a second one, in x, when y is the scalar) fits exactly, with
        # no step
        calls = []
        real = recovery._damped_solve

        def counted(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(recovery, "_damped_solve", counted)
        rng = np.random.default_rng(70)
        for k1, k2, solves in ((1, 3, 1), (3, 1, 2), (1, 1, 1)):
            sc = ConstraintScenario("subspace", 2, k1, k2)
            ens = build_ensemble(sc, COMPLEX_GENERIC, 71)
            z = apply_A(ens, random_factors(sc, 72))
            aS, bS = (np.repeat(rows[None], 4, axis=0) for rows in support_rows(ens))
            calls.clear()
            _, _, res = _lm(aS, bS, np.tile(z, (4, 1)),
                            rng.standard_normal((4, k1)) + 1j * rng.standard_normal((4, k1)),
                            _residual_floor(np.tile(z, (4, 1))))
            assert len(calls) == solves and np.all(res <= 1e-10), (k1, k2)

    def test_slot_at_its_optimum_stops_at_once(self, monkeypatch):
        # noisy measurements at n = 8 > d have no exact fit. Restarted at
        # the point it converged to, a slot stops on the step-size test
        # within a few steps; without that test it rejects steps until lam
        # exceeds LM_LAMBDA_MAX, 25 steps from LM_LAMBDA_START
        ens, z, _ = _stacked_row(subspace(8, 3, 3), 4, 80, noise=0.05)
        aS, bS = (np.ascontiguousarray(rows) for rows in support_rows(ens))
        X, _, res = _lm(aS, bS, z, np.random.default_rng(81).standard_normal((4, 3)) + 0j,
                        _residual_floor(z))
        assert np.all(res > 1e-3)
        real = recovery._damped_solve

        def steps_from_optimum():
            calls = []
            monkeypatch.setattr(recovery, "_damped_solve",
                                lambda *args: calls.append(1) or real(*args))
            _, _, again = _lm(aS, bS, z, X, _residual_floor(z))
            assert np.all(again <= res * (1 + 1e-9))
            return len(calls) - 1  # the first call is the initial y solve

        assert steps_from_optimum() <= 10
        monkeypatch.setattr(recovery, "LM_STEP_RTOL", 0.0)
        assert steps_from_optimum() >= 25

    def test_damping_floor_keeps_the_solve_regular(self):
        # B^H B is 0 in slot 0 and of rank 2 of 4 in slot 1: both solve
        B = np.zeros((2, 3, 4), dtype=complex)
        B[1, :, :2] = np.arange(1, 7).reshape(3, 2)
        w = np.ones((2, 3), dtype=complex)
        s = recovery._damped_solve(B, w, recovery.LM_LAMBDA_FLOOR)
        assert np.all(s[0] == 0) and np.all(np.isfinite(s[1]))
        assert np.allclose(B[1] @ s[1], B[1] @ np.linalg.lstsq(B[1], w[1], rcond=None)[0])


def _certify_grid():
    grid = [ConstraintScenario("sparsity", n, 5, 5, 1, 1) for n in (1, 2, 3, 4, 6)]
    grid += [ConstraintScenario("subspace", n, 2, 2) for n in (2, 3, 4)]
    grid += [ConstraintScenario("mixed", n, 3, 2, 1) for n in (2, 3, 4)]
    return grid


# 5x5 with s = 2 has fewer largest unions (C(5, 4)^2 = 25) than distinct
# unions, and its exact path certifies from n = 16
@pytest.mark.parametrize("sc", _certify_grid() + [ConstraintScenario("sparsity", n, 5, 5, 2, 2)
                                                  for n in (15, 16)],
                         ids=lambda sc: f"{sc.kind}-n{sc.n}")
def test_certifiers_match_attempt_by_attempt_reference(sc):
    # chunked attempts and SVDs of the largest unions give the verdicts,
    # budgets and witnesses of one attempt and one SVD per union at a time;
    # the loose tolerance puts first counterexamples past attempt 1 (at
    # attempts 2 to 37 here)
    for seed, tol in itertools.product(range(3), (1e-6, 0.05)):
        ens, M0 = draw_trial(sc, COMPLEX_GENERIC, seed, R=None)
        for level, new, ref, args in (
                ("weak", certify_weak, oracles.certify_weak, (ens, M0)),
                ("strong", certify_strong, oracles.certify_strong, (ens,))):
            got = new(*args, budget=100, tol=tol, rng=np.random.default_rng(seed))
            want = ref(*args, budget=100, tol=tol, rng=np.random.default_rng(seed))
            assert (got.status, got.search_budget) == (want.status, want.search_budget), \
                (level, seed, tol)
            if got.status == COUNTEREXAMPLE_FOUND:
                assert verify_counterexample(got, ens), (level, seed, tol)
                assert np.array_equal(got.witness.M, want.witness.M)
                assert np.array_equal(got.reference.M, want.reference.M)


def test_certifier_counterexamples_verify_on_the_grid():
    # every counterexample on the grid passes the verifier at both
    # tolerances, admissibility included, and each (level, tol) finds some
    found = dict.fromkeys(itertools.product(("weak", "strong"), (1e-6, 0.05)), 0)
    for sc in _certify_grid():
        for seed, tol in itertools.product(range(3), (1e-6, 0.05)):
            ens, M0 = draw_trial(sc, COMPLEX_GENERIC, seed, R=None)
            for level, v in (
                    ("weak", certify_weak(ens, M0, budget=100, tol=tol,
                                          rng=np.random.default_rng(seed))),
                    ("strong", certify_strong(ens, budget=100, tol=tol,
                                              rng=np.random.default_rng(seed)))):
                if v.status == COUNTEREXAMPLE_FOUND:
                    assert verify_counterexample(v, ens), (sc, level, seed, tol)
                    found[level, tol] += 1
    assert all(found.values()), found


def test_verify_rejects_inadmissible_witness():
    # a witness measured like the reference and far from it is rejected
    # when its support is larger than the constraint set allows
    sc = ConstraintScenario("sparsity", 1, 5, 5, 1, 1)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 3)
    e = np.eye(5)
    ref = LiftedMatrix(e[2], e[4])
    z = apply_A(ens, ref)[0]

    def measured_like_ref(x, y):
        return LiftedMatrix(x * z / apply_A(ens, np.outer(x, y))[0], y)

    def verdict(witness, reference=ref):
        return IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, witness, reference, 1, 1e-6)

    assert verify_counterexample(verdict(measured_like_ref(e[0], e[1])), ens)
    for x, y in ((e[0] + e[1], e[1]), (e[0], e[1] - 2j * e[3])):
        witness = measured_like_ref(x, y)
        assert abs(apply_A(ens, witness)[0] - z) <= 1e-12
        assert not verify_counterexample(verdict(witness), ens)
        assert not verify_counterexample(verdict(ref, witness), ens)
    # a witness or a reference given as a plain array is rejected, not raised on
    plain = measured_like_ref(e[0], e[1]).M
    assert not verify_counterexample(verdict(plain), ens)
    assert not verify_counterexample(verdict(ref, plain), ens)


def test_supports_are_relative_to_each_factor():
    # a factor's support is measured against its own largest entry: a dense
    # x scaled by 1e-15 is still dense, so its pair is refused at s = 1
    sc = ConstraintScenario("sparsity", 2, 5, 5, 1, 1)
    rng = np.random.default_rng(95)
    x, e = oracles.random_factor(5, rng), np.eye(5)
    assert not recovery._admissible(sc, LiftedMatrix(1e-15 * x, 1e15 * e[1]))
    assert recovery._admissible(sc, LiftedMatrix(1e-15 * e[0], 1e15 * e[1]))


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_admissibility_and_verification_are_orbit_invariant(c):
    # (x, y) -> (cx, y/c) is one lifted matrix, so _admissible and
    # verify_counterexample give it one answer: the witnesses of
    # test_verify_rejects_inadmissible_witness, plus one whose second
    # entry (1e-3 of its first) an absolute 1e-14 would drop at c = 1e-12
    sc = ConstraintScenario("sparsity", 1, 5, 5, 1, 1)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 3)
    e = np.eye(5)
    ref = LiftedMatrix(e[2], e[4])
    z = apply_A(ens, ref)[0]
    scaled = lambda M: LiftedMatrix(c * M.x, M.y / c)
    for x, y, valid in ((e[0], e[1], True), (e[0] + e[1], e[1], False),
                        (e[0], e[1] - 2j * e[3], False), (e[0] + 1e-3 * e[3], e[1], False)):
        witness = LiftedMatrix(x * z / apply_A(ens, np.outer(x, y))[0], y)
        assert recovery._admissible(sc, witness) == valid
        for M in (witness, ref):
            assert recovery._admissible(sc, scaled(M)) == recovery._admissible(sc, M)
        for pair in ((witness, ref), (ref, witness)):
            for M1, M2 in (pair, tuple(map(scaled, pair))):
                verdict = IdentifiabilityVerdict(COUNTEREXAMPLE_FOUND, M1, M2, 1, 1e-6)
                assert verify_counterexample(verdict, ens) == valid


def _with_bases(sc, D, E):
    """The ensemble of bases D (n, m1) and E (n, m2), built by hand."""
    return Ensemble(scenario=sc, tag=COMPLEX_GENERIC, seed=0, R=None, D=D, E=E,
                    a=_rows_from_matrix(D), b=_rows_from_matrix(E))


def _exact_verdicts(ens, M0):
    """The weak and strong statuses of the exact path alone (budget 0)."""
    return [certify(*args, budget=0, tol=1e-6, rng=np.random.default_rng(0)).status
            for certify, args in ((certify_weak, (ens, M0)), (certify_strong, (ens,)))]


@pytest.mark.parametrize("m,n", [(2, 8), (3, 12)])
def test_a_scaled_zero_padded_ensemble_is_never_certified(m, n):
    # D and E the first m columns of I_n: A has rank 2m - 1 < m^2 at every
    # n, so no certificate may be issued; with D scaled by 1e8 (2x2) or 1e9
    # (3x3), an absolute bound on the smallest singular value, which is
    # about eps times the largest, issued one
    sc = ConstraintScenario("subspace", n, m, m)
    I = np.eye(n, dtype=np.complex128)
    M0 = LiftedMatrix(np.arange(1.0, m + 1), np.ones(m))
    for scale in (1.0, 1e8, 1e9):
        ens = _with_bases(sc, scale * I[:, :m], I[:, :m])
        assert _exact_verdicts(ens, M0) == [HEURISTICALLY_UNIQUE] * 2, scale


@pytest.mark.parametrize("n", [9, 12])
def test_exact_verdicts_do_not_move_when_the_basis_is_scaled(n):
    # the injectivity rule is relative to the largest singular value, so
    # scaling D of a generic 3x3 ensemble by c keeps both exact verdicts
    sc = ConstraintScenario("subspace", n, 3, 3)
    for seed in range(3):
        ens = build_ensemble(sc, COMPLEX_GENERIC, seed)
        M0 = LiftedMatrix(ens.D[0].conj(), ens.E[0].conj())
        want = _exact_verdicts(ens, M0)
        assert want == [CERTIFIED_UNIQUE] * 2
        for c in (1e-6, 1e-3, 1e3, 1e6):
            assert _exact_verdicts(_with_bases(sc, c * ens.D, ens.E), M0) == want, (seed, c)


def test_largest_unions_cover_every_union():
    # each largest union is one of the unions, and every union lies in one:
    # the unions of two k-sets (strong) and of a fixed set with a k-set (weak)
    for m, k in ((5, 1), (5, 2), (6, 3), (4, 4)):
        k_sets = list(itertools.combinations(range(m), k))
        for unions, largest in (
                ({oracles._union(A, B) for A, B in
                  itertools.combinations_with_replacement(k_sets, 2)},
                 recovery._largest_unions(m, 2 * k)),
                *(({oracles._union(S0, S) for S in k_sets},
                   recovery._largest_unions(m, k, np.array(S0, dtype=np.intp)))
                  for S0 in ((), (1,), (0, 2), tuple(range(m))))):
            largest = list(map(tuple, largest.tolist()))
            assert largest == sorted(set(largest)) and set(largest) <= unions
            assert all(any(set(u) <= set(R) for R in largest) for u in unions)


def test_injective_on_bounds_its_stacks(monkeypatch):
    # every stack holds at most STACK_ENTRIES operator entries
    # (or one rectangle), the rectangles checked are exactly the products of
    # the largest unions, fewer than the distinct unions, the verdict is
    # that of one SVD per union, and the check stops at the first stack
    # that fails
    stacks = []

    def recorded(ens, rows, cols):
        stacks.append(list(zip(map(tuple, rows.tolist()), map(tuple, cols.tolist()))))
        return operator_matrix(ens, rows=rows, cols=cols)

    monkeypatch.setattr(recovery, "operator_matrix", recorded)
    sc = ConstraintScenario("sparsity", 4, 5, 5, 1, 1)
    unions = {(oracles._union(S1a, S1b), oracles._union(S2a, S2b))
              for (S1a, S2a), (S1b, S2b) in
              itertools.combinations_with_replacement(zip(*admissible_supports(sc)), 2)}
    rows = cols = recovery._largest_unions(5, 2)
    assert len(rows) * len(cols) == math.comb(5, 2) ** 2 < len(unions)
    for n, entries in itertools.product((4, 6), (1, 40, 1 << 20)):
        ens = build_ensemble(sc.with_n(n), COMPLEX_GENERIC, n)
        assert all(oracles._injective_on(ens, R1, R2) for R1, R2 in unions)
        monkeypatch.setattr(recovery, "STACK_ENTRIES", entries)
        stacks.clear()
        assert recovery._injective_on(ens, rows, cols)
        assert all(len(stack) * n * 4 <= max(entries, n * 4) for stack in stacks)
        checked = [rect for stack in stacks for rect in stack]
        assert checked == list(itertools.product(map(tuple, rows.tolist()),
                                                 map(tuple, cols.tolist())))
        assert len(stacks) == math.ceil(len(checked) / max(1, entries // (n * 4)))
    monkeypatch.setattr(recovery, "STACK_ENTRIES", 100)
    monkeypatch.setattr(recovery, "INJECTIVITY_TOL", np.inf)
    stacks.clear()
    assert not recovery._injective_on(ens, rows, cols)
    assert len(stacks) == 1 and len(stacks[0]) > 1


def test_certifiers_are_sound_when_a_smaller_union_is_singular():
    # column 1 of a equals column 0, so a union that holds rows 0 and 1 is
    # singular, also one that is not largest (({0, 1, 2}, S2) for the weak
    # side, ({0, 1}, S2) for the strong); no certificate is issued, and
    # both certifiers give the verdicts of one SVD per union
    sc = ConstraintScenario("sparsity", 16, 5, 5, 2, 2)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 3)
    a = ens.a.copy()
    a[:, 1] = a[:, 0]
    ens = replace(ens, a=a)
    rng = np.random.default_rng(4)
    M0 = LiftedMatrix(_embed(oracles.random_factor(2, rng), [0, 2], 5),
                      _embed(oracles.random_factor(2, rng), [1, 3], 5))
    assert not oracles._injective_on(ens, (0, 1, 2), (1, 3))
    for args, new, ref in (((ens, M0), certify_weak, oracles.certify_weak),
                           ((ens,), certify_strong, oracles.certify_strong)):
        got = new(*args, budget=20, tol=1e-6, rng=np.random.default_rng(5))
        want = ref(*args, budget=20, tol=1e-6, rng=np.random.default_rng(5))
        assert got.status != CERTIFIED_UNIQUE
        assert (got.status, got.search_budget) == (want.status, want.search_budget)


def test_certificate_unions_past_the_cap_are_refused(monkeypatch):
    # sparsity 40x40 with s = 1 has 1,600 support pairs, but the strong
    # certificate's largest unions give C(40, 2)^2 = 608,400 rectangles: it
    # raises before any SVD, while the weak one (39^2 = 1,521 rectangles)
    # still certifies. Mixed 1,000 x 2 with s1 = 1 has 1,000 pairs and
    # C(1000, 2) largest unions on one side; unions past the cap on one side
    # are refused before they are listed
    checked = []
    real = recovery.operator_matrix
    monkeypatch.setattr(recovery, "operator_matrix",
                        lambda ens, **kw: checked.append(1) or real(ens, **kw))
    ens, M0 = draw_trial(ConstraintScenario("sparsity", 4, 40, 40, 1, 1),
                         COMPLEX_GENERIC, 0, R=None)
    for sc, count in ((ens.scenario, 608_400),
                      (ConstraintScenario("mixed", 4, 1000, 2, 1), math.comb(1000, 2))):
        with pytest.raises(EnumerationCapError, match=f"^{count} support unions exceed "
                                                      "the cap of 100000"):
            certify_strong(build_ensemble(sc, COMPLEX_GENERIC, 1), budget=10, tol=1e-6,
                           rng=np.random.default_rng(0))
    assert not checked
    with pytest.raises(EnumerationCapError, match="^1000000 support unions"):
        recovery._largest_unions(10**6, 1)
    verdict = certify_weak(ens, M0, budget=10, tol=1e-6, rng=np.random.default_rng(0))
    assert verdict.status == CERTIFIED_UNIQUE and checked


def test_certifier_runs_one_attempt_then_the_rest_and_solver_waves_grow_by_two(monkeypatch):
    # a search that finds nothing fits its 100 attempts in two stacks, the
    # first attempt alone and then the other 99, at both levels; a solve
    # that fits no trial runs its 1 + 6 starts in waves of 1, 2 and 4
    assert [len(c) for c in recovery._chunks(100, 100, 100)] == [1, 99]
    assert [len(c) for c in recovery._chunks(63, 2, 63)] == [1, 2, 4, 8, 16, 32]
    calls = []
    real = recovery._lm
    monkeypatch.setattr(recovery, "_lm",
                        lambda aS, *args: calls.append(len(aS)) or real(aS, *args))
    ens, M0 = draw_trial(ConstraintScenario("sparsity", 3, 5, 5, 1, 1), COMPLEX_GENERIC, 0,
                         R=None)
    for certify, args in ((certify_weak, (ens, M0)), (certify_strong, (ens,))):
        calls.clear()
        v = certify(*args, budget=100, tol=1e-6, rng=np.random.default_rng(0))
        assert (v.status, v.search_budget) == (HEURISTICALLY_UNIQUE, 100)
        assert calls == [1, 99]
    calls.clear()
    ens, z, _ = _stacked_row(subspace(8, 3, 3), 1, 80, noise=0.05)
    solve_fixed_support(RowStack((ens,)), [z], *admissible_supports(subspace(8, 3, 3)), 6,
                        [np.random.default_rng(81)])
    assert calls == [1, 2, 4]


def test_certifier_chunks_hold_at_most_the_stack_bound(monkeypatch):
    # with STACK_ENTRIES at three attempts' entries (restricted rows
    # n * (k1 + k2) and the m1 x m2 far test each), every fit stack holds at
    # most 3 attempts; attempt t draws the same values in any chunking, so
    # verdicts, budgets and witnesses equal the uncapped run's, also for
    # the counterexamples found past the first chunks (attempts 8 to 24)
    calls = []
    real = recovery._lm
    spy = lambda aS, *args: calls.append(len(aS)) or real(aS, *args)  # noqa: E731
    found = 0
    for sc, (level, certify), seed, tol in itertools.product(
            (subspace(3), ConstraintScenario("sparsity", 1, 5, 5, 1, 1)),
            (("weak", certify_weak), ("strong", certify_strong)), range(3), (1e-6, 0.05)):
        ens, M0 = draw_trial(sc, COMPLEX_GENERIC, seed, R=None)
        args = (ens, M0) if level == "weak" else (ens,)
        want = certify(*args, budget=100, tol=tol, rng=np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recovery, "STACK_ENTRIES", 3 * (sc.n * sum(sc.support_sizes)
                                                       + sc.m1 * sc.m2))
            mp.setattr(recovery, "_lm", spy)
            calls.clear()
            got = certify(*args, budget=100, tol=tol, rng=np.random.default_rng(seed))
        assert calls and max(calls) <= 3, calls
        assert (got.status, got.search_budget) == (want.status, want.search_budget), \
            (sc, level, seed, tol)
        if got.status == COUNTEREXAMPLE_FOUND:
            found += got.search_budget > 4
            assert np.array_equal(got.witness.M, want.witness.M)
            assert np.array_equal(got.reference.M, want.reference.M)
    assert found >= 8, found
    # an attempt larger than the bound still runs, one per chunk
    assert [len(c) for c in recovery._chunks(5, 5, 1)] == [1] * 5
    assert [len(c) for c in recovery._chunks(30, 30, 3)] == [1] + [3] * 9 + [2]


def test_a_budget_within_the_stack_bound_makes_at_most_two_fits(monkeypatch):
    # up to _attempts_per_chunk(sc) attempts, a search that finds nothing
    # is one fit of the first attempt and one of the rest; one attempt
    # more than the bound still fits in two stacks, and one more takes three
    sc = ConstraintScenario("sparsity", 3, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 0, R=None)
    calls = []
    real = recovery._lm
    monkeypatch.setattr(recovery, "_lm",
                        lambda aS, *args: calls.append(len(aS)) or real(aS, *args))
    most = recovery._attempts_per_chunk(sc)
    for certify, args in ((certify_weak, (ens, M0)), (certify_strong, (ens,))):
        calls.clear()
        v = certify(*args, budget=most, tol=1e-6, rng=np.random.default_rng(0))
        assert (v.status, calls) == (HEURISTICALLY_UNIQUE, [1, most - 1])
    monkeypatch.setattr(recovery, "STACK_ENTRIES", 4 * (sc.n * sum(sc.support_sizes)
                                                        + sc.m1 * sc.m2))
    most = recovery._attempts_per_chunk(sc)
    assert most == 4
    want = {0: [], 1: [1], 2: [1, 1], 3: [1, 2], 4: [1, 3], 5: [1, 4], 6: [1, 4, 1]}
    for (certify, args), budget in itertools.product(
            ((certify_weak, (ens, M0)), (certify_strong, (ens,))), want):
        calls.clear()
        v = certify(*args, budget=budget, tol=1e-6, rng=np.random.default_rng(0))
        assert (v.status, v.search_budget, calls) == (HEURISTICALLY_UNIQUE, budget,
                                                      want[budget])


def test_trials_per_stack_keeps_the_solver_stack_bound():
    # P*N*k1*k2*starts entries per trial, with the solve length N: n for
    # least squares (n >= k1*k2) with 1 start, and k1*k2 - 1, to which the
    # kernel zero-pads every trial, with restarts + 1 starts; over the
    # certifier grid and the transition scenarios; at least one trial per
    # stack, and one count for all kernel rows of a scenario
    grid = _certify_grid() + [subspace(n, 3, 3) for n in (3, 6, 9)] + [
        ConstraintScenario("sparsity", n, 3, 4, 2, 3) for n in (4, 5, 6)] + [
        ConstraintScenario("mixed", 4, 4, 4, 2), subspace(1000, 40, 40)]
    for sc, restarts in itertools.product(grid, (0, 3, 62)):
        k = math.prod(sc.support_sizes)
        P = math.comb(sc.m1, sc.support_sizes[0]) * math.comb(sc.m2, sc.support_sizes[1])
        N = sc.n if sc.n >= k else k - 1
        assert recovery._solve_length(sc) == N
        per_trial = P * k * N * (restarts + 1 if sc.n < k else 1)
        assert recovery._trials_per_stack(sc, restarts) == max(1, (1 << 20) // per_trial)
    assert {recovery._trials_per_stack(subspace(n, 3, 3), 62) for n in range(1, 9)} == {
        (1 << 20) // (9 * 8 * 63)}
    assert recovery._trials_per_stack(subspace(1000, 40, 40), 0) == 1


def test_exact_path_builds_no_support_pairs(monkeypatch):
    # a verdict the certificate decides reads no support pairs, so it
    # builds none; a scenario past the pair cap raises the enumeration's
    # message before any union is listed or any SVD runs
    built, checked = [], []
    real_supports, real_operator = recovery.admissible_supports, recovery.operator_matrix
    monkeypatch.setattr(recovery, "admissible_supports",
                        lambda sc: built.append(sc) or real_supports(sc))
    monkeypatch.setattr(recovery, "operator_matrix",
                        lambda ens, **kw: checked.append(1) or real_operator(ens, **kw))
    ens, M0 = draw_trial(ConstraintScenario("sparsity", 6, 5, 5, 1, 1), COMPLEX_GENERIC,
                         0, R=None)
    for v in (certify_weak(ens, M0, budget=10, tol=1e-6, rng=np.random.default_rng(0)),
              certify_strong(ens, budget=10, tol=1e-6, rng=np.random.default_rng(0))):
        assert v.status == CERTIFIED_UNIQUE
    assert checked and not built
    checked.clear()
    monkeypatch.setattr(recovery, "_largest_unions", lambda *args: checked.append(args))
    sc = ConstraintScenario("sparsity", 4, 30, 30, 5, 5)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 1)
    e = np.eye(30)
    for certify, args in ((certify_weak, (ens, LiftedMatrix(e[0], e[1]))),
                          (certify_strong, (ens,))):
        with pytest.raises(EnumerationCapError,
                           match=f"^{math.comb(30, 5) ** 2} support pairs exceed the cap "
                                 "of 100000; use a smaller instance$"):
            certify(*args, budget=10, tol=1e-6, rng=np.random.default_rng(0))
    assert not checked and not built


@pytest.mark.parametrize("level", ["weak", "strong"])
def test_chunk_returns_its_first_far_fit(level, monkeypatch):
    # in the chunk of attempts 1..99, attempts 1 and 3 fit near the
    # reference, 2 is far but does not fit, and 4 and 5 fit far from it:
    # one stacked test returns attempt 4's fit, and the search stops there
    sc = subspace(2)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 0)
    M0 = random_factors(sc, 1)
    measured, calls = [], []
    real_apply = recovery.apply_A
    monkeypatch.setattr(recovery, "apply_A",
                        lambda e, M: measured.append(as_matrix(M)) or real_apply(e, M))
    e = np.eye(2, dtype=complex)
    far = {1: (e[0], e[1]), 3: (e[1], e[0]), 4: (e[0] + e[1], e[0] - e[1])}

    def scripted(aS, bS, z, X0, floor, group=1):
        # the reference's own factors, rescaled, in every slot, then the far ones
        T = len(aS)
        calls.append(T)
        x, y = recovery._top_rank1(np.broadcast_to(measured[-1], (T, 2, 2)))
        x, y, residual = 2 * x, y / 2, np.ones(T)
        if T == 99:
            for i, (xf, yf) in far.items():
                x[i], y[i] = xf, yf
            residual[[0, 2, 3, 4]] = 0.0
        return x, y, residual

    monkeypatch.setattr(recovery, "_lm", scripted)
    rng = np.random.default_rng(2)
    v = (certify_weak(ens, M0, budget=100, tol=1e-6, rng=rng) if level == "weak"
         else certify_strong(ens, budget=100, tol=1e-6, rng=rng))
    assert (v.status, v.search_budget, calls) == (COUNTEREXAMPLE_FOUND, 5, [1, 99])
    assert np.array_equal(v.witness.M, np.outer(e[1], e[0]))
    assert np.array_equal(v.reference.M, M0.M if level == "weak" else measured[-1][3])


@pytest.mark.parametrize("first", [9, 10, 73, 74])
@pytest.mark.parametrize("level", ["weak", "strong"])
def test_far_fits_at_the_old_chunk_edges_return_the_first(level, first, monkeypatch):
    # attempts, counted from 1 as search_budget counts them, 9 | 10 and
    # 73 | 74 sat on either side of a chunk edge when chunks grew by 8; far
    # unit-norm fits at the edges from `first` on, each a different
    # matrix, return the one at attempt `first`, in any chunking
    sc = subspace(2)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 0)
    M0 = random_factors(sc, 1)
    measured, calls = [], []
    real_apply = recovery.apply_A
    monkeypatch.setattr(recovery, "apply_A",
                        lambda e, M: measured.append(as_matrix(M)) or real_apply(e, M))
    e = np.eye(2, dtype=complex)
    far = {t: f for t, f in zip((9, 10, 73, 74), itertools.product(e, e)) if t >= first}

    def scripted(aS, bS, z, X0, floor, group=1):
        # near the reference and not fitting in every slot, but the far fits
        T, done = len(aS), sum(calls)
        calls.append(T)
        x, y = recovery._top_rank1(np.broadcast_to(measured[-1], (T, 2, 2)))
        residual = np.ones(T)
        for t, (xf, yf) in far.items():
            if done < t <= done + T:
                x[t - done - 1], y[t - done - 1], residual[t - done - 1] = xf, yf, 0.0
        return x, y, residual

    monkeypatch.setattr(recovery, "_lm", scripted)
    rng = np.random.default_rng(2)
    v = (certify_weak(ens, M0, budget=100, tol=1e-6, rng=rng) if level == "weak"
         else certify_strong(ens, budget=100, tol=1e-6, rng=rng))
    assert (v.status, v.search_budget) == (COUNTEREXAMPLE_FOUND, first)
    assert np.array_equal(v.witness.M, np.outer(*far[first]))
    assert np.array_equal(v.reference.M,
                          M0.M if level == "weak" else np.concatenate(measured)[first - 1])


@pytest.mark.parametrize("part", ["x", "y"])
@pytest.mark.parametrize("sc, seed", [(ConstraintScenario("sparsity", 1, 5, 5, 1, 1), 0),
                                      (subspace(3), 2)], ids=["k=1", "k=2"])
def test_strong_search_never_returns_a_zero_plant(sc, seed, part):
    # the planted x (or y) draws are all 0 at the attempt that otherwise
    # finds the counterexample: that attempt draws its support, factors and
    # start like every other one and raises nothing, and its plant measures
    # NaN, which no fit matches, so it is not the counterexample
    class Scripted:
        def __init__(self):
            self.rng, self.draws, self.rows = np.random.default_rng(seed), [], 0

        def integers(self, high, size):
            self.draws.append(("support", size))
            return self.rng.integers(high, size=size)

        def standard_normal(self, size):
            (T, width), t = size, hit - 1 - self.rows
            self.draws.append(width)
            g = self.rng.standard_normal(size)
            if 0 <= t < T:  # row t is the hit attempt's x, y and start
                g[t, slice(0, 2 * k1) if part == "x" else slice(2 * k1, 2 * (k1 + k2))] = 0.0
            self.rows += T
            return g

    k1, k2 = sc.support_sizes
    ens, _ = draw_trial(sc, COMPLEX_GENERIC, seed, R=None)
    v = certify_strong(ens, budget=100, tol=0.05, rng=np.random.default_rng(seed))
    hit = v.search_budget
    assert v.status == COUNTEREXAMPLE_FOUND
    rng = Scripted()
    with pytest.warns(RuntimeWarning, match="encountered in"):
        v = certify_strong(ens, budget=100, tol=0.05, rng=rng)
    assert rng.draws == [("support", 100)] + [2 * (k1 + k2) + 2 * k1] * (len(rng.draws) - 1)
    assert rng.rows >= hit and v.search_budget != hit
    assert v.status != COUNTEREXAMPLE_FOUND or verify_counterexample(v, ens)


def test_certifiers_refuse_a_far_threshold_at_the_ball_radius():
    # at tol >= 0.1 the far threshold 10 * tol reaches the unit-ball radius
    # 1, so a verdict could turn on the last bit of an orbit distance
    # between matrices of the ball: both searches refuse such a tolerance,
    # and the verifier passes no verdict that carries one, also for a
    # witness measured within it and more than 10 * tol away
    sc = ConstraintScenario("sparsity", 1, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 1, R=None)
    message = "^tolerance must be below 0.1, so that the far threshold 10 \\* tol stays below"
    for tol in (0.1, 0.5):
        with pytest.raises(ValueError, match=message):
            certify_weak(ens, M0, budget=10, tol=tol, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            certify_strong(ens, budget=10, tol=tol, rng=np.random.default_rng(0))
    v = certify_weak(ens, M0, budget=100, tol=0.05, rng=np.random.default_rng(1))
    assert v.status == COUNTEREXAMPLE_FOUND and verify_counterexample(v, ens)
    assert min_scaled_distance(v.witness, v.reference) > 1.0
    assert not verify_counterexample(replace(v, tolerance=0.1), ens)


def test_zero_budget_searches_nothing():
    sc = ConstraintScenario("sparsity", 2, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 0, R=None)
    for v in (certify_weak(ens, M0, budget=0, tol=1e-6, rng=np.random.default_rng(0)),
              certify_strong(ens, budget=0, tol=1e-6, rng=np.random.default_rng(0))):
        assert (v.status, v.search_budget) == (HEURISTICALLY_UNIQUE, 0)
    sc = ConstraintScenario("sparsity", 6, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 0, R=None)
    for v in (certify_weak(ens, M0, budget=0, tol=1e-6, rng=np.random.default_rng(0)),
              certify_strong(ens, budget=0, tol=1e-6, rng=np.random.default_rng(0))):
        assert (v.status, v.search_budget) == (CERTIFIED_UNIQUE, 0)


def test_zero_budget_takes_no_sigma_max(monkeypatch):
    # sigma_max(A) is the unit of the rule that judges a fit, so a search
    # of budget 0, which judges none, runs no SVD for it; budget 1 runs one
    sc = ConstraintScenario("sparsity", 2, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 0, R=None)
    calls = []
    real = recovery._sigma_max
    monkeypatch.setattr(recovery, "_sigma_max", lambda e: calls.append(e) or real(e))
    for budget, want in ((0, 0), (1, 1)):
        for certify in (lambda **kw: certify_weak(ens, M0, **kw),
                        lambda **kw: certify_strong(ens, **kw)):
            calls.clear()
            v = certify(budget=budget, tol=1e-6, rng=np.random.default_rng(0))
            assert v.status != CERTIFIED_UNIQUE and len(calls) == want, (budget, v.status)


def test_weak_search_takes_no_cone_factor(monkeypatch):
    # at radius inf the cone factor is exactly 1, so a weak search forms no
    # fitted products to rescale: it makes no _frobenius call, while the
    # strong search, in the unit ball, still rescales
    sc = ConstraintScenario("sparsity", 2, 5, 5, 1, 1)
    ens, M0 = draw_trial(sc, COMPLEX_GENERIC, 1, R=None)
    calls = []
    real = recovery._frobenius
    monkeypatch.setattr(recovery, "_frobenius", lambda M: calls.append(len(M)) or real(M))
    v = certify_weak(ens, M0, budget=100, tol=1e-6, rng=np.random.default_rng(1))
    assert (v.status, v.search_budget) == (HEURISTICALLY_UNIQUE, 100) and not calls
    certify_strong(ens, budget=100, tol=1e-6, rng=np.random.default_rng(1))
    assert calls


def test_strong_search_draws_once_per_chunk():
    # a heuristic strong search at budget 100 runs chunks of 1 and 99
    # attempts and makes three generator calls: every attempt's support
    # pick, then each chunk's plants and starts as one block
    sc = ConstraintScenario("sparsity", 2, 5, 5, 1, 1)
    ens, _ = draw_trial(sc, COMPLEX_GENERIC, 1, R=None)

    class Counting:
        def __init__(self):
            self.rng, self.calls = np.random.default_rng(1), []

        def __getattr__(self, name):
            method = getattr(self.rng, name)
            return lambda *args, **kw: self.calls.append(name) or method(*args, **kw)

    rng = Counting()
    v = certify_strong(ens, budget=100, tol=1e-6, rng=rng)
    assert (v.status, v.search_budget) == (HEURISTICALLY_UNIQUE, 100)
    assert rng.calls == ["integers", "standard_normal", "standard_normal"]


class TestSolveSparseEnumerate:
    def test_recovers_planted_support(self):
        sc = ConstraintScenario(kind="sparsity", n=5, m1=4, m2=4, s1=1, s2=1)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 11)
        x = np.zeros(4, dtype=np.complex128)
        y = np.zeros(4, dtype=np.complex128)
        x[2] = 1.5 - 1j
        y[1] = 0.5 + 2j
        M0 = LiftedMatrix(x, y)
        res = solve_one(solve_sparse_enumerate, ens, apply_A(ens, M0),
                        restarts=0, rng=np.random.default_rng(0))
        assert res.support == ([2], [1])
        assert align_and_distance(res.M_hat, M0) < 1e-8

    def test_zero_ties_break_to_first_support(self):
        sc = ConstraintScenario(kind="sparsity", n=5, m1=3, m2=3, s1=1, s2=1)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 12)
        res = solve_one(solve_sparse_enumerate, ens, np.zeros(5),
                        restarts=0, rng=np.random.default_rng(0))
        assert res.support == ([0], [0])
        assert np.linalg.norm(res.M_hat.M) == 0.0

    def test_subspace_kind_is_one_fixed_support_solve(self):
        # a subspace scenario has the single full support; n < m1*m2 takes
        # the Levenberg-Marquardt path, whose restarts draw from rng
        sc = subspace(6, 3, 3)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 1)
        z_tilde = apply_A(ens, random_factors(sc, 2))
        rng_enum, rng_fixed = np.random.default_rng(3), np.random.default_rng(3)
        enum = solve_one(solve_sparse_enumerate, ens, z_tilde, restarts=4, rng=rng_enum)
        fixed = solve_one(solve_fixed_support, ens, z_tilde, [range(3)], [range(3)],
                          restarts=4, rng=rng_fixed)
        assert np.array_equal(enum.M_hat.M, fixed.M_hat.M)
        assert (enum.residual, enum.support, enum.restarts_used) == \
            (fixed.residual, fixed.support, fixed.restarts_used)
        assert rng_enum.bit_generator.state == rng_fixed.bit_generator.state

    def test_mixed_alternating_minimization_path(self):
        # n = 3 < s1*m2 = 4: the Levenberg-Marquardt path on a support with
        # k1 != k2, whose adjoint start is a non-square matrix
        sc = ConstraintScenario(kind="mixed", n=3, m1=4, m2=2, s1=2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 13)
        z = np.random.default_rng(14).standard_normal(3) + 0j
        res = solve_one(solve_sparse_enumerate, ens, z, restarts=2,
                        rng=np.random.default_rng(15))
        assert res.restarts_used == 0 and np.isfinite(res.residual)  # an exact fit

    def test_mixed_scenario(self):
        sc = ConstraintScenario(kind="mixed", n=5, m1=4, m2=2, s1=1)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 13)
        x = np.zeros(4, dtype=np.complex128)
        x[3] = 2.0
        y = np.array([1.0, -1j])
        M0 = LiftedMatrix(x, y)
        res = solve_one(solve_sparse_enumerate, ens, apply_A(ens, M0),
                        restarts=0, rng=np.random.default_rng(0))
        assert align_and_distance(res.M_hat, M0) < 1e-8


@pytest.mark.parametrize("zero", [False, True], ids=["planted", "zero"])
@pytest.mark.parametrize("sc", [
    ConstraintScenario("sparsity", 5, 4, 4, 1, 1),  # least squares, 16 supports
    ConstraintScenario("sparsity", 5, 3, 4, 2, 3),  # kernel, 12 supports
    ConstraintScenario("mixed", 6, 4, 4, 2),  # kernel, 6 supports
], ids=lambda sc: f"{sc.kind}-{sc.m1}x{sc.m2}-s{sc.s1}")
def test_enumeration_matches_the_per_support_loop(sc, zero):
    # one solve over every support gives each trial the bits of one solve
    # per support merged by strict improvement. Planted measurements, noisy
    # in odd trials, stop some trials early and run others to the end; zero
    # measurements tie on every support, and the first support wins. A
    # trial that the first wave fits leaves its generator untouched; any
    # other draws its P * restarts random starts in one block
    T = 6
    trials = [draw_trial(sc, COMPLEX_GENERIC, seed, R=None) for seed in range(T)]
    ens = build_ensemble(sc, COMPLEX_GENERIC, [ens.seed for ens, _ in trials])
    z = np.array([apply_A(ens, M0) for ens, M0 in trials])
    z[1::2] += 0.01 * np.random.default_rng(91).standard_normal(z[1::2].shape)
    if zero:
        z[:] = 0
    rngs = [[np.random.default_rng(90 + t) for t in range(T)] for _ in range(2)]
    got = solve_sparse_enumerate(RowStack((ens,)), [z], 4, rngs[0])
    want = oracles.solve_sparse_enumerate(ens, z, 4, rngs[1])
    assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)
    assert np.array_equal(got.residual, want.residual)
    assert all(map(np.array_equal, got.supports, want.supports))
    assert got.restarts_used == want.restarts_used
    # the first wave alone is the solve without random starts; least
    # squares reads no generator
    (S1, S2), (k1, k2) = admissible_supports(sc), sc.support_sizes
    P = len(S1)
    first = solve_sparse_enumerate(RowStack((ens,)), [z], 0, [np.random.default_rng(0)] * T)
    floor = recovery.LM_RESIDUAL_FLOOR * recovery._norm(z)
    drawn = (first.residual > floor) & (sc.n < k1 * k2)
    for t, g in enumerate(rngs[0]):
        want = np.random.default_rng(90 + t)
        if drawn[t]:
            want.standard_normal((P * 4, 2, k1))
        assert g.bit_generator.state == want.bit_generator.state
    assert drawn.any() == (sc.n < k1 * k2 and not zero)
    if zero:
        assert np.array_equal(got.supports[0], S1[[0] * T])
        assert np.array_equal(got.supports[1], S2[[0] * T])
        assert not got.X.any() and not got.residual.any()
    else:
        assert len(np.unique(np.hstack(got.supports), axis=0)) > 1


@pytest.mark.parametrize("sc,tag", [
    *((subspace(n), COMPLEX_GENERIC) for n in range(4, 9)),
    (subspace(16, 4, 4), COMPLEX_GENERIC),
    (subspace(64, 4, 4), REAL_UNIFORM_BALL),
    (subspace(1024, 4, 4), REAL_UNIFORM_BALL),
    (ConstraintScenario("sparsity", 5, 4, 4, 1, 1), REAL_GENERIC),  # 16 supports
], ids=lambda v: f"{v.kind}-{v.m1}x{v.m2}-n{v.n}" if isinstance(v, ConstraintScenario) else v)
def test_least_squares_slots_match_the_per_slot_loop(sc, tag, monkeypatch):
    # n >= k1*k2: one stacked QR and back substitution, one stacked rank-1
    # projection and one residual call give every (trial, support) slot the
    # bits of the loop over slots, and each trial the first of its smallest
    # residuals. Planted measurements, noisy in odd trials
    T = 6
    ens, X, Y, _ = draw_trials(sc, tag, range(T), R=None)
    z = apply_A(ens, X[:, :, None] * Y[:, None, :])
    z[1::2] += 0.01 * np.random.default_rng(92).standard_normal(z[1::2].shape)
    S1, S2 = admissible_supports(sc)
    seen = []
    for name in ("_lstsq", "_top_rank1", "_norm"):
        real = getattr(recovery, name)
        monkeypatch.setattr(recovery, name,
                            lambda *args, real=real: seen.append(real(*args)) or seen[-1])
    fit = solve_sparse_enumerate(RowStack((ens,)), [z], 0, [np.random.default_rng(0)] * T)
    vec, (x, y), residual = seen
    # independently of the oracle's QR: each slot's solution is within
    # 1e-12 relative of np.linalg.lstsq's
    op = operator_matrix(ens, rows=S1, cols=S2)
    for t, p in np.ndindex(op.shape[:2]):
        want = np.linalg.lstsq(op[t, p], z[t], rcond=None)[0]
        assert np.linalg.norm(vec[t, p] - want) <= 1e-12 * np.linalg.norm(want), (t, p)
    want_x, want_y, want_residual = oracles.least_squares_fits(ens, z, S1, S2)
    assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
    assert np.array_equal(residual, want_residual)
    best = want_residual.argmin(1)
    assert np.array_equal(fit.residual, want_residual[range(T), best])
    assert np.array_equal(fit.X, _embed(want_x[range(T), best], S1[best], sc.m1))
    assert np.array_equal(fit.Y, _embed(want_y[range(T), best], S2[best], sc.m2))
    assert np.array_equal(fit.supports[0], S1[best])
    assert np.array_equal(fit.supports[1], S2[best])
    assert np.all(fit.residual[::2] <= 1e-10) and np.all(fit.residual[1::2] > 1e-4)


@pytest.mark.parametrize("n", [24, 16], ids=["tall", "square"])
def test_least_squares_refits_a_rank_deficient_slot_by_lstsq(n, monkeypatch):
    # 4x4 stacks whose trial 1 has column 1 of a equal to column 0, so its
    # A has duplicated columns: its R fails the rank rule, and that slot
    # alone is refit by np.linalg.lstsq, one call on its own (n, 16)
    # operator, and gets lstsq's minimum-norm solution bit for bit, without
    # raising. Every other slot, square n = k slots included, is within
    # 1e-12 relative of np.linalg.lstsq
    ens, X, Y, _ = draw_trials(subspace(n, 4, 4), COMPLEX_GENERIC, range(4), R=None)
    a = ens.a.copy()
    a[1, :, 1] = a[1, :, 0]
    ens = replace(ens, a=a)
    z = apply_A(ens, X[:, :, None] * Y[:, None, :])
    z[2:] += np.random.default_rng(93).standard_normal(z[2:].shape)
    S1, S2 = admissible_supports(ens.scenario)
    refits = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda A, *args, **kw: refits.append(A.copy()) or real(A, *args, **kw))
    x = recovery._lstsq(*support_rows(ens, S1, S2), z[:, None, :])[:, 0]
    monkeypatch.undo()
    A = operator_matrix(ens)
    assert len(refits) == 1 and refits[0].shape == (n, 16)
    assert np.array_equal(refits[0], A[1])
    assert np.array_equal(x[1], np.linalg.lstsq(A[1], z[1], rcond=None)[0])
    for t in (0, 2, 3):
        want = np.linalg.lstsq(A[t], z[t], rcond=None)[0]
        assert np.linalg.norm(x[t] - want) <= 1e-12 * np.linalg.norm(want), t


class TestDistances:
    def test_scaling_orbit_collapses(self):
        M1 = LiftedMatrix([1.0, 0], [2.0, 0])
        M2 = LiftedMatrix([2.0, 0], [1.0, 0])
        assert align_and_distance(M1, M2) == 0.0

    def test_orthogonal_units(self):
        M1 = LiftedMatrix([1.0, 0], [1.0, 0])
        M2 = LiftedMatrix([0, 1.0], [0, 1.0])
        assert np.isclose(align_and_distance(M1, M2), np.sqrt(2))

    def test_min_scaled_distance(self):
        M0 = LiftedMatrix([1.0, 0], [1.0, 0])
        assert min_scaled_distance((3 - 2j) * M0.M, M0) < 1e-12
        assert min_scaled_distance(np.zeros((2, 2)), M0) < 1e-12
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 3\) vs \(2, 2\)"):
            min_scaled_distance(np.zeros((2, 3)), M0)

    def test_stacked_min_scaled_distance_matches_lone_calls(self):
        # a stack of pairs, a zero reference among them, gets pair by pair
        # the bits of the lone calls; a zero reference gives ||M||_F
        rng = np.random.default_rng(4)
        M0 = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
        noise = 10.0 ** -rng.integers(0, 12, size=(6, 1, 1)) * rng.standard_normal((6, 3, 2))
        M = (2 - 1j) * M0 + noise
        M0[2] = 0
        dist = min_scaled_distance(M, M0)
        assert dist.shape == (6,) and dist[2] == np.linalg.norm(M[2])
        for t in range(6):
            lone = min_scaled_distance(M[t], M0[t])
            assert type(lone) is float and dist[t] == lone
            assert min_scaled_distance(M[t], M0[t].copy(order="F")) == lone
        assert min_scaled_distance(M[None, :2], M0[None, :2]).shape == (1, 2)

    def test_is_recovered_threshold(self):
        M0 = LiftedMatrix([1.0, 0], [1.0, 0])
        assert is_recovered(M0, M0)
        assert not is_recovered(M0.M + 1e-3, M0)

    def test_is_recovered_is_relative_to_the_plant(self):
        # scaling M_hat and M0 together moves no verdict: the threshold is
        # RECOVERY_RTOL * ||M0||, with no absolute floor, so 0 does not
        # pass for 1e-7 M0
        rng = np.random.default_rng(5)
        M0 = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
        M0 /= np.linalg.norm(M0, axis=(1, 2), keepdims=True)
        M_hat = M0 + np.array([0, 1e-3, 1e-5, 3e-7, 1e-9, 1.0])[:, None, None] * M0[::-1]
        want = is_recovered(M_hat, M0)
        assert want.tolist() == [True, False, False, True, True, False]
        for c in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            assert np.array_equal(is_recovered(c * M_hat, c * M0), want), c
            assert not is_recovered(np.zeros((3, 2)), c * 1e-7 * M0[0]), c

    def test_stacks_score_pair_by_pair(self):
        # a stack of pairs gets, pair by pair, the bits of the lone calls
        rng = np.random.default_rng(3)
        M0 = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        M_hat = M0 + 10.0 ** -rng.integers(3, 10, size=(5, 1, 1)) * rng.standard_normal((5, 3, 2))
        dist, ok = align_and_distance(M_hat, M0), is_recovered(M_hat, M0)
        assert dist.shape == ok.shape == (5,) and 0 < ok.sum() < 5
        for t in range(5):
            assert dist[t] == align_and_distance(M_hat[t], M0[t]) == np.linalg.norm(M_hat[t] - M0[t])
            assert ok[t] == is_recovered(M_hat[t], M0[t])
        assert type(align_and_distance(M_hat[0], M0[0])) is float
        assert type(is_recovered(M_hat[0], M0[0])) is bool

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            align_and_distance(np.zeros((2, 2)), np.zeros((2, 3)))


class TestCertifiers:
    def test_weak_certified_at_full_rank(self):
        sc = subspace(4)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 20)
        v = certify_weak(ens, random_factors(sc, 1), budget=100, tol=1e-6,
                         rng=np.random.default_rng(0))
        assert v.status == CERTIFIED_UNIQUE

    def test_weak_counterexample_below_dof(self):
        sc = subspace(2)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 21)
        v = certify_weak(ens, random_factors(sc, 2), budget=100, tol=1e-6,
                         rng=np.random.default_rng(3))
        assert v.status == COUNTEREXAMPLE_FOUND
        assert verify_counterexample(v, ens)

    def test_weak_above_threshold_not_counterexample(self):
        # n=5 > d=4: no spurious solution should be found (the exact path
        # already certifies since n >= m1*m2)
        sc = subspace(5)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 22)
        v = certify_weak(ens, random_factors(sc, 3), budget=200, tol=1e-6,
                         rng=np.random.default_rng(4))
        assert v.status != COUNTEREXAMPLE_FOUND

    def test_weak_rejects_zero_factors(self):
        sc = subspace(4)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 20)
        with pytest.raises(ValueError):
            certify_weak(ens, LiftedMatrix(np.zeros(2), np.zeros(2)),
                         budget=100, tol=1e-6, rng=np.random.default_rng(0))

    def test_strong_certified_at_n4(self):
        sc = subspace(4)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 23)
        v = certify_strong(ens, budget=100, tol=1e-6, rng=np.random.default_rng(0))
        assert v.status == CERTIFIED_UNIQUE

    def test_strong_sparsity_union_certificate(self):
        sc = ConstraintScenario(kind="sparsity", n=4, m1=3, m2=3, s1=1, s2=1)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 24)
        v = certify_strong(ens, budget=100, tol=1e-6, rng=np.random.default_rng(0))
        assert v.status == CERTIFIED_UNIQUE

    def test_strong_counterexample_at_n1(self):
        sc = subspace(1)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 25)
        v = certify_strong(ens, budget=100, tol=1e-6, rng=np.random.default_rng(5))
        assert v.status == COUNTEREXAMPLE_FOUND
        assert verify_counterexample(v, ens)
        # witnesses live in the unit Frobenius ball
        assert np.linalg.norm(v.witness.M) <= 1 + 1e-9 or \
            np.linalg.norm(v.reference.M) <= 1 + 1e-9

    def test_verify_rejects_non_counterexamples(self):
        sc = subspace(4)
        ens = build_ensemble(sc, COMPLEX_GENERIC, 23)
        v = certify_strong(ens, budget=100, tol=1e-6, rng=np.random.default_rng(0))
        assert not verify_counterexample(v, ens)


def test_success_rate_monotone_in_n():
    # noiseless success rate over a seeded sweep is non-decreasing in n up
    # to 2-sigma binomial slack
    from blindid.mc import run_phase_transition
    sc = ConstraintScenario(kind="subspace", n=5, m1=2, m2=2)
    rows = run_phase_transition(sc, COMPLEX_GENERIC, (2, 3, 4, 5), trials=40, seed=77,
                                restarts=5, noise_level=0.0, R=None)
    rates = [r["rate"] for r in rows]
    sigma = np.sqrt(0.25 / 40)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 2 * sigma


def test_lm_converges_from_random_start():
    # n = 6 = d < m1*m2 = 9: least squares cannot solve it, the
    # Levenberg-Marquardt kernel from random starts must
    sc = ConstraintScenario(kind="subspace", n=6, m1=3, m2=3)
    ens = build_ensemble(sc, COMPLEX_GENERIC, 31)
    M0 = random_factors(sc, 32)
    z = apply_A(ens, M0)
    rng = np.random.default_rng(33)
    X0 = np.array([rng.standard_normal(3) + 1j * rng.standard_normal(3)
                   for _ in range(10)])
    aS, bS = (np.repeat(rows[None], 10, axis=0) for rows in support_rows(ens))
    X, Y, residuals = _lm(aS, bS, np.tile(z, (10, 1)), X0, _residual_floor(np.tile(z, (10, 1))))
    assert min(residuals) <= 1e-8
    best = int(np.argmin(residuals))
    assert align_and_distance(np.outer(X[best], Y[best]), M0) <= 1e-6
