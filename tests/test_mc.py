import itertools
import math

import numpy as np
import pytest

from blindid import bounds, mc, recovery
from blindid.ensembles import (ALL_TAGS, COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL,
                               REAL_GENERIC, REAL_UNIFORM_BALL, ConstraintScenario,
                               build_ensemble, mix_seed)
from blindid.lifting import LiftedMatrix, apply_A, calibrated_isometry_radius
import oracles
from oracles import deviation_alone


SUBSPACE5 = ConstraintScenario(kind="subspace", n=5, m1=2, m2=2)
SUBSPACE10 = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)


def _transition(sc=SUBSPACE5, ns=(5,), **kw):
    return mc.run_phase_transition(sc, COMPLEX_GENERIC, ns, **{
        **dict(trials=1, seed=0, restarts=62, noise_level=0.0, R=None), **kw})


def _stability(sc=SUBSPACE10, deltas=(0.1,), **kw):
    return mc.run_stability_sweep(sc, deltas, **{
        **dict(trials=1, seed=0, restarts=62, R=None, mode="single_point", starts=3), **kw})


@pytest.fixture
def no_draws(monkeypatch):
    """Fails the test if anything is drawn: a sweep checks every input it
    reads before its first draw."""
    drawn = []
    monkeypatch.setattr(mc, "_draw_trials", lambda *args, **kw: drawn.append(args))
    yield
    assert drawn == []


@pytest.mark.usefixtures("no_draws")
class TestSweepInputs:
    def test_validation(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            _transition(trials=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            _stability(trials=0)
        with pytest.raises(ValueError, match="noise_level must be nonnegative"):
            _transition(noise_level=-0.1)

    def test_nan_noise_level_rejected(self):
        with pytest.raises(ValueError, match="noise_level must be nonnegative"):
            _transition(noise_level=float("nan"))
        with pytest.raises(ValueError, match="noise_level must be nonnegative"):
            mc.recover_stack([SUBSPACE5], COMPLEX_GENERIC, [0], R=None, restarts=62,
                             noise_level=float("nan"))

    def test_nan_stability_budget_rejected(self):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            _stability(deltas=(0.1, float("nan")))

    @pytest.mark.parametrize("sweep, kw, message", [
        (_transition, dict(ns=(5, 5.7)), "n must be a positive integer, got 5.7"),
        (_transition, dict(ns=(5, 0)), "n must be a positive integer"),
        (_transition, dict(restarts=-1), "restarts must be >= 0"),
        (_stability, dict(deltas=(0.0,), mode="bogus"), "unknown mode 'bogus'"),
        (_stability, dict(deltas=(0.0, 0.1), starts=0), "starts must be >= 1"),
        (_stability, dict(deltas=(0.0,), restarts=-1), "restarts must be >= 0"),
        (_stability, dict(deltas=(0.0, -0.1)), "delta must be nonnegative"),
    ], ids=["fractional_n", "zero_n", "transition_restarts", "mode", "starts",
            "stability_restarts", "delta"])
    def test_rejected_before_any_draw(self, sweep, kw, message):
        # a fractional sample count is not truncated to a row, and an
        # unknown mode is rejected even where only delta = 0 rows would run
        with pytest.raises(ValueError, match=message):
            sweep(**kw)


class TestSmallBallEstimator:
    def test_sharp_case_matches_closed_form(self):
        rng = np.random.default_rng(0)
        rho = 0.1
        p, se = mc.estimate_small_ball_prob(np.array([[1.0 + 0j]]), 1.0, rho,
                                            50_000, rng)
        exact = rho**2 * (1 + 2 * math.log(1 / rho))
        assert abs(p - exact) <= 3 * se

    def test_certain_event(self):
        rng = np.random.default_rng(1)
        p, _ = mc.estimate_small_ball_prob(np.array([[1.0 + 0j]]), 1.0, 1.0,
                                           2_000, rng)
        assert p == 1.0

    def test_rejects_zero_matrix_and_bad_trials(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            mc.estimate_small_ball_prob(np.zeros((2, 2)), 1.0, 0.1, 100, rng)
        with pytest.raises(ValueError):
            mc.estimate_small_ball_prob(np.eye(2), 1.0, 0.1, 0, rng)

    def test_bounded_by_concentration_function(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        L = float(np.linalg.norm(M, 2))
        rho = 0.1
        p, se = mc.estimate_small_ball_prob(M, 1.0, rho, 20_000, rng)
        assert p <= bounds.small_ball_bound("complex", rho, L, L, 1.0, 2, 3) + 3 * se


def test_mean_isometry_estimator_converges_at_calibrated_radius():
    R = calibrated_isometry_radius(8, 2, 2)
    err = mc.mean_isometry_relative_error(2, 2, 8, R, 10_000, seed=4)
    assert err < 0.05


def test_ensemble_radius_defaults():
    assert mc.ensemble_radius(COMPLEX_GENERIC, SUBSPACE5, None) is None
    assert mc.ensemble_radius(COMPLEX_UNIFORM_BALL, SUBSPACE5, 0.5) == 0.5
    got = mc.ensemble_radius(COMPLEX_UNIFORM_BALL, SUBSPACE5, None)
    assert np.isclose(got, ((2 + 2) * (2 + 2) / 25) ** 0.25)


class TestPhaseTransition:
    def test_rates_bracket_the_threshold(self):
        rows = mc.run_phase_transition(SUBSPACE5, COMPLEX_GENERIC, (2, 5), trials=25,
                                       seed=11, restarts=62, noise_level=0.0, R=None)
        assert rows[0]["rate"] < 0.5 and rows[1]["rate"] == 1.0
        assert (rows[0]["d"], rows[0]["two_d"]) == (4, 8)
        assert all(0 <= r["successes"] <= r["trials"] for r in rows)

    def test_noise_breaks_exact_recovery(self):
        row = mc.run_phase_transition(SUBSPACE5, COMPLEX_GENERIC, (5,), trials=10,
                                      seed=12, restarts=62, noise_level=0.05, R=None)[0]
        assert row["mean_lifted_error"] > 1e-6

    def test_real_ensembles_supported(self):
        rows = mc.run_phase_transition(SUBSPACE5, REAL_GENERIC, (5,), trials=10, seed=13,
                                       restarts=62, noise_level=0.0, R=None)
        assert rows[0]["rate"] == 1.0

    def test_rerun_identical_and_trials_replay_alone(self):
        # trial i of row r is recover_stack on the one seed
        # mix_seed(master, r, i); n < m1*m2 (subspace 2x2 at n = 3) and
        # n < s1*s2 (sparsity 3x4 with s1 = 2, s2 = 3 at n = 4 and at
        # n = d = 5, its 12 supports in one solve) take the restarted
        # Levenberg-Marquardt kernel, the rest least squares. The kernel
        # rows' trials are solved in flat stacks that may span rows, each
        # trial zero-padded to the solve length N = k1*k2 - 1, and a
        # least-squares row's trials in stacks of their own, of at most
        # recovery.STACK_ENTRIES P*N*k1*k2*starts per trial, for P supports
        # of k1 x k2 and restarts + 1 starts on the kernel (N = n and 1 start
        # on least squares), which change no result: a bound of 5 kernel
        # trials cuts the kernel trials into stacks of 5, which span the
        # two sparse kernel rows. So for every tag, noiseless and with noise
        # from the plant streams
        sparse = ConstraintScenario("sparsity", 6, 3, 4, 2, 3)
        for (sc, sweep, P, k), tag, noise_level in itertools.product(
                ((SUBSPACE5, (3, 4, 5), 1, 2 * 2), (sparse, (4, 5, 6), 12, 2 * 3)),
                ALL_TAGS, (0.0, 0.01)):
            kw = dict(trials=12, seed=14, restarts=3, noise_level=noise_level, R=None)
            rows = mc.run_phase_transition(sc, tag, sweep, **kw)
            csv = mc.sweep_csv(mc.TRANSITION_COLUMNS, rows)
            assert csv == mc.sweep_csv(mc.TRANSITION_COLUMNS,
                                       mc.run_phase_transition(sc, tag, sweep, **kw))
            per_trial = P * k * (kw["restarts"] + 1)
            entries = 5 * (k - 1) * per_trial
            stacks = []
            real = mc.solve_sparse_enumerate

            def spy(ens, z_tilde, **kw):
                stacks.append([z.shape for z in z_tilde])
                return real(ens, z_tilde, **kw)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recovery, "STACK_ENTRIES", entries)
                mp.setattr(mc, "solve_sparse_enumerate", spy)
                assert mc.sweep_csv(mc.TRANSITION_COLUMNS,
                                    mc.run_phase_transition(sc, tag, sweep, **kw)) == csv
            kernel = [n for n in sweep if n < k]
            K, cut = 12 * len(kernel), -(-12 * len(kernel) // 5)
            # the kernel trials in row order, in stacks of 5, then one stack
            # per least-squares row
            assert [sum(T for T, _ in stack) for stack in stacks[:cut]] == [
                min(5, K - start) for start in range(0, K, 5)], stacks
            assert [n for stack in stacks[:cut] for T, n in stack for _ in range(T)] == [
                n for n in kernel for _ in range(12)]
            assert stacks[cut:] == [[(12, n)] for n in sweep if n >= k], stacks
            assert any(len(stack) > 1 for stack in stacks) == (len(kernel) > 1)
            for stack in stacks:
                N = max(max(n for _, n in stack), k - 1)
                assert sum(T for T, _ in stack) * N * (per_trial if N < k else P * k) \
                    <= entries, stacks
            for row_idx, row in enumerate(rows):
                alone = [mc.recover_stack([sc.with_n(row["n"])], tag,
                                          [mix_seed(kw["seed"], row_idx, i)],
                                          R=None, restarts=kw["restarts"],
                                          noise_level=noise_level)
                         for i in range(kw["trials"])]
                assert row["successes"] == sum(ok[0] for _, _, ok in alone)
                assert row["mean_lifted_error"] == float(np.mean([err[0]
                                                                  for _, err, _ in alone]))
            if noise_level:
                assert all(row["successes"] == 0 for row in rows)

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_draw_trial_is_a_slot_of_the_stacked_draw(self, tag):
        # each slot of a stacked draw has the bits of draw_trial on its seed
        # alone, and leaves its plant stream where a one-seed stack leaves it;
        # odd n and even n complete real ball rows differently
        for sc in (ConstraintScenario("subspace", 7, 3, 2),
                   ConstraintScenario("mixed", 8, 4, 3, 2),
                   ConstraintScenario("sparsity", 9, 4, 4, 1, 3)):
            seeds = [mix_seed(15, 0, i) for i in range(12)]
            ens, X, Y, plant_rngs = mc._draw_trials(sc, tag, seeds, R=None)
            assert ens.seed == tuple(mix_seed(seed, 0) for seed in seeds)
            for t, seed in enumerate(seeds):
                one, M0 = mc.draw_trial(sc, tag, seed, R=None)
                assert one.seed == mix_seed(seed, 0)
                for name in ("D", "E", "a", "b"):
                    got, want = getattr(ens, name)[t], getattr(one, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
                assert np.array_equal(X[t], M0.x) and np.array_equal(Y[t], M0.y)
                assert np.array_equal(np.outer(X[t], Y[t]), M0.M)
                *_, lone_plant = mc._draw_trials(sc, tag, [seed], R=None)
                assert (plant_rngs[t].bit_generator.state
                        == lone_plant[0].bit_generator.state)

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_draws_match_the_per_call_oracle(self, tag):
        # a trial's ensemble and plant draws, one generator call per block
        # and assembled on the stack, have the bits of one call per side and
        # part, alone and stacked, and leave the plant stream where those
        # calls leave it; odd and even n, dense and sparse sides
        real = tag in (REAL_GENERIC, REAL_UNIFORM_BALL)
        for sc in (ConstraintScenario("subspace", 7, 3, 2),
                   ConstraintScenario("mixed", 8, 4, 3, 2),
                   ConstraintScenario("sparsity", 9, 4, 4, 1, 3)):
            R = mc.ensemble_radius(tag, sc, None)
            drawn = ("a", "b") if R else ("D", "E")
            for seeds in ([mix_seed(16, 0, 0)], [mix_seed(16, 0, i) for i in range(9)]):
                ens, X, Y, plant_rngs = mc._draw_trials(sc, tag, seeds, R=None)
                lone = build_ensemble(sc, tag, mix_seed(seeds[0], 0), R=R)
                for name, want in zip(drawn, oracles.ensemble_draws(sc, tag, R, lone.seed)):
                    got = getattr(lone, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
                for t, seed in enumerate(seeds):
                    for name, want in zip(drawn, oracles.ensemble_draws(
                            sc, tag, R, mix_seed(seed, 0))):
                        got = getattr(ens, name)[t]
                        assert got.dtype == want.dtype and np.array_equal(got, want), name
                    rng = np.random.default_rng(mix_seed(seed, 1))
                    x, y = oracles.plant_factors(sc, real, rng)
                    x = x / (np.linalg.norm(x) * np.linalg.norm(y))
                    assert np.array_equal(X[t], x) and np.array_equal(Y[t], y)
                    assert plant_rngs[t].bit_generator.state == rng.bit_generator.state

    def test_trials_build_only_the_generators_they_read(self, monkeypatch):
        # a trial builds its ensemble and plant generators; its solver
        # generator only once it reaches a random start, which least
        # squares never does
        built, slots = [], []
        real_rng, real_lm = np.random.default_rng, recovery._lm
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: built.append(seed) or real_rng(seed))
        monkeypatch.setattr(recovery, "_lm",
                            lambda aS, *args: slots.append(len(aS)) or real_lm(aS, *args))
        seeds = [mix_seed(17, 0, i) for i in range(20)]
        mc.recover_stack([ConstraintScenario("subspace", 8, 2, 2)] * 20, COMPLEX_GENERIC, seeds,
                         R=None, restarts=62, noise_level=0.0)
        assert built == [mix_seed(s, i) for i in (0, 1) for s in seeds] and not slots
        built.clear()
        mc.recover_stack([ConstraintScenario("subspace", 6, 3, 3)] * 20, COMPLEX_GENERIC, seeds,
                         R=None, restarts=62, noise_level=0.0)
        # one support: the first wave runs a slot per trial, the second two
        # per trial that reaches it
        reached = slots[1] // 2 if len(slots) > 1 else 0
        assert slots[0] == 20 and 0 < reached < 20
        assert len(built) == 40 + reached
        assert set(built[40:]) <= {mix_seed(s, 2) for s in seeds}
        # draw_trial returns the ensemble and the plant alone, and builds
        # no solver generator
        built.clear()
        assert len(mc.draw_trial(ConstraintScenario("subspace", 6, 3, 3), COMPLEX_GENERIC,
                                 seeds[0], R=None)) == 2
        assert built == [mix_seed(seeds[0], 0), mix_seed(seeds[0], 1)]

    @pytest.mark.parametrize("sc,tag,want", [
        # least squares: one QR and one back substitution, no SVD-based
        # lstsq; the build takes two inverse FFTs
        (ConstraintScenario("subspace", 8, 2, 2), REAL_UNIFORM_BALL,
         {"fft": 3, "ifft": 3, "qr_r_raw": 1, "solve": 1, "lstsq": 0}),
        # least squares on 16 supports; the build takes two forward FFTs
        (ConstraintScenario("sparsity", 5, 4, 4, 1, 1), COMPLEX_GENERIC,
         {"fft": 5, "ifft": 1, "qr_r_raw": 1, "solve": 1, "lstsq": 0}),
        # the kernel (whose damped solves are not counted)
        (ConstraintScenario("subspace", 6, 3, 3), COMPLEX_UNIFORM_BALL,
         {"fft": 3, "ifft": 3, "qr_r_raw": 0, "lstsq": 0}),
    ], ids=["least-squares", "supports", "kernel"])
    def test_a_stack_makes_as_many_calls_as_one_trial(self, sc, tag, want, monkeypatch):
        # a stack of trials is built, measured (two forward FFTs and an
        # inverse one), transformed (one forward FFT) and solved by one call
        # per step, whatever its size: a loop over trials would make more
        # calls at T = 12
        from numpy.linalg import _umath_linalg
        counts = {}
        for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (_umath_linalg, "qr_r_raw"),
                             (_umath_linalg, "solve"), (_umath_linalg, "lstsq")):
            def counted(*args, real=getattr(module, name), name=name, **kw):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kw)
            monkeypatch.setattr(module, name, counted)

        def calls(T):
            counts.clear()
            mc._recover_trials([sc] * T, tag, list(range(T)), R=None, restarts=2,
                               noise_level=0.01)
            return {name: counts.get(name, 0) for name in want}

        assert calls(1) == want
        assert calls(12) == want

    def test_kernel_rows_share_the_waves_of_their_longest_row(self, monkeypatch):
        # a sweep's kernel rows (3x3 at n = 3..8, the benchmark's band, at
        # the default 62 restarts) are one stack: each solver wave is one
        # kernel run over every row's live trials, so the sweep makes as
        # many _lm calls as its longest row has waves, at most 6 (1, 2, 4,
        # 8, 16 and 32 starts), where one stack per row makes each row's
        # own. The least-squares row n = 9 makes none
        calls = []
        real = recovery._lm
        monkeypatch.setattr(recovery, "_lm",
                            lambda aS, *args: calls.append(len(aS)) or real(aS, *args))
        sc = ConstraintScenario("subspace", 9, 3, 3)
        kw = dict(R=None, restarts=62, noise_level=0.0)
        per_row = []
        for row_idx, n in enumerate(range(3, 10)):
            calls.clear()
            mc._recover_trials([sc.with_n(n)] * 20, COMPLEX_GENERIC,
                               [mix_seed(18, row_idx, i) for i in range(20)], **kw)
            per_row.append(len(calls))
        calls.clear()
        mc.run_phase_transition(sc, COMPLEX_GENERIC, range(3, 10), trials=20, seed=18, **kw)
        assert per_row[-1] == 0 and sum(per_row) > max(per_row) > 1
        assert len(calls) == max(per_row) <= 6

    def test_support_cap_is_checked_before_any_draw(self, monkeypatch):
        # a row's stacks are sized from the count C(m1, s1) * C(m2, s2), and
        # a count past SUPPORT_CAP raises with the enumeration's message
        # before any trial is drawn or any support listed
        calls = []
        monkeypatch.setattr(mc, "_draw_trials", lambda *args, **kw: calls.append("draw"))
        monkeypatch.setattr(recovery, "_largest_unions",
                            lambda *args: calls.append("enumerate"))
        count = math.comb(30, 5) ** 2
        with pytest.raises(recovery.EnumerationCapError,
                           match=f"^{count} support pairs exceed the cap of 100000; "
                                 "use a smaller instance$"):
            _transition(ConstraintScenario("sparsity", 5, 30, 30, 5, 5))
        assert not calls

    def test_csv_schema(self):
        rows = mc.run_phase_transition(SUBSPACE5, COMPLEX_GENERIC, (5,), trials=3, seed=15,
                                       restarts=62, noise_level=0.0, R=None)
        assert tuple(rows[0]) == mc.TRANSITION_COLUMNS
        text = mc.sweep_csv(mc.TRANSITION_COLUMNS, rows)
        lines = text.splitlines()
        assert lines[0] == "n,trials,successes,rate,d,two_d,mean_lifted_error"
        assert text.endswith("\n") and len(lines) == 2
        n, trials, succ, rate = lines[1].split(",")[:4]
        assert (int(n), int(trials)) == (5, 3)
        assert 0 <= float(rate) <= 1

    def test_empty_sweep_gives_header_only(self):
        rows = mc.run_phase_transition(SUBSPACE5, COMPLEX_GENERIC, (), trials=3, seed=15,
                                       restarts=62, noise_level=0.0, R=None)
        assert mc.sweep_csv(mc.TRANSITION_COLUMNS, rows) == \
            "n,trials,successes,rate,d,two_d,mean_lifted_error\n"


def _reference_deviation_objective(p, ens, M0, t0, delta, mu):
    """One-slot loop version of the penalized deviation objective, kept as
    the reference for the batched one."""
    m1, m2 = M0.shape
    x = p[:m1] + 1j * p[m1:2 * m1]
    y = p[2 * m1:2 * m1 + m2] + 1j * p[2 * m1 + m2:]
    M = np.outer(x, y)
    diff = M - M0
    u = ens.a.conj() @ x
    v = ens.b.conj() @ y
    r = u * v - t0
    s = float(np.linalg.norm(r))
    h = max(s - delta, 0.0)
    t = float(np.linalg.norm(M))
    h2 = max(t - 1.0, 0.0)
    val = -float(np.linalg.norm(diff)) ** 2 + mu * h * h + mu * h2 * h2
    gx = -(diff @ y.conj())
    gy = -(diff.T @ x.conj())
    if h > 0.0:
        gx += mu * h / s * (ens.a.T @ (v.conj() * r))
        gy += mu * h / s * (ens.b.T @ (u.conj() * r))
    if h2 > 0.0:
        gx += mu * h2 / t * (M @ y.conj())
        gy += mu * h2 / t * (M.T @ x.conj())
    return val, np.concatenate([2 * gx.real, 2 * gx.imag, 2 * gy.real, 2 * gy.imag])


def _reference_wolfe_search(fun, idx, p, f, d, gd, step):
    """Lockstep weak-Wolfe line search: every slot of idx tries its next
    step in the same call of fun, until all have accepted or failed."""
    lo = np.zeros(idx.size)
    hi = np.full(idx.size, np.inf)
    alpha = step.copy()
    ok = np.zeros(idx.size, dtype=bool)
    p_new, f_new, g_new = np.empty_like(p), np.empty_like(f), np.empty_like(p)
    pending = np.arange(idx.size)
    for _ in range(mc.LBFGS_MAXLS):
        if pending.size == 0:
            break
        a = alpha[pending]
        pt = p[pending] + a[:, None] * d[pending]
        ft, gt = fun(pt, idx[pending])
        sufficient = ft <= f[pending] + mc.WOLFE_C1 * a * gd[pending]
        curved = (gt * d[pending]).sum(1) >= mc.WOLFE_C2 * gd[pending]
        done = sufficient & curved
        acc = pending[done]
        ok[acc] = True
        p_new[acc], f_new[acc], g_new[acc] = pt[done], ft[done], gt[done]
        hi[pending] = np.where(sufficient, hi[pending], a)
        lo[pending] = np.where(sufficient & ~curved, a, lo[pending])
        alpha[pending] = np.where(np.isinf(hi[pending]), 2.0 * a,
                                  0.5 * (lo[pending] + hi[pending]))
        pending = pending[~done]
    return ok, p_new, f_new, g_new


def _reference_lbfgs(objective, p, maxiter, *data):
    """Lockstep batched L-BFGS, kept as the reference for mc._lbfgs: each
    iteration runs one line search over all running slots together, so the
    batch waits for its slowest slot. Each slot's arithmetic is the same as
    in the per-slot kernel."""

    def fun(points, idx):
        return objective(points, *(arr[idx] for arr in data))

    B, dim = p.shape
    p = p.copy()
    f, g = fun(p, np.arange(B))
    S = np.zeros((B, mc.LBFGS_MEMORY, dim))
    Y = np.zeros((B, mc.LBFGS_MEMORY, dim))
    rho = np.zeros((B, mc.LBFGS_MEMORY))
    nit = np.zeros(B, dtype=int)
    status = np.where(np.abs(g).max(1) <= mc.LBFGS_PGTOL, mc.CONVERGED, mc._RUNNING)

    def clear_memory(slots):
        S[slots], Y[slots], rho[slots] = 0.0, 0.0, 0.0

    while True:
        act = np.flatnonzero(status == mc._RUNNING)
        if act.size == 0:
            break
        d = -mc._two_loop(g[act], S[act].transpose(1, 0, 2), Y[act].transpose(1, 0, 2),
                          rho[act].T)
        gd = (g[act] * d).sum(1)
        bad = ~(gd < 0.0)
        if bad.any():
            clear_memory(act[bad])
            d[bad] = -g[act[bad]]
            gd[bad] = (g[act[bad]] * d[bad]).sum(1)
        fresh = rho[act, 0] == 0.0
        step = np.where(fresh, 1.0 / np.sqrt((d * d).sum(1)), 1.0)
        ok, p_new, f_new, g_new = _reference_wolfe_search(fun, act, p[act], f[act],
                                                          d, gd, step)

        failed = act[~ok]
        status[failed[fresh[~ok]]] = mc.LINE_SEARCH_FAILED
        clear_memory(failed)

        j = act[ok]
        s = p_new[ok] - p[j]
        yv = g_new[ok] - g[j]
        sy = (s * yv).sum(1)
        keep = sy > np.finfo(float).eps * -(g[j] * s).sum(1)
        jk = j[keep]
        S[jk, 1:], Y[jk, 1:], rho[jk, 1:] = S[jk, :-1], Y[jk, :-1], rho[jk, :-1]
        S[jk, 0], Y[jk, 0], rho[jk, 0] = s[keep], yv[keep], 1.0 / sy[keep]

        f_old = f[j]
        p[j], f[j], g[j] = p_new[ok], f_new[ok], g_new[ok]
        nit[j] += 1
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f[j])), 1.0)
        conv = (f_old - f[j] <= mc.LBFGS_FTOL * scale) | (np.abs(g[j]).max(1) <= mc.LBFGS_PGTOL)
        status[j[conv]] = mc.CONVERGED
        status[j[~conv & (nit[j] >= maxiter)]] = mc.MAXITER
    return p, status


def _quadratics():
    """Five well-posed 6-dimensional quadratics, one per slot."""
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((5, 6, 6))
    A = Q @ Q.transpose(0, 2, 1) + np.diag(np.arange(1.0, 7.0))
    c = rng.standard_normal((5, 6))

    def quadratic(q, idx):
        Aq = (A[idx] * q[:, None, :]).sum(2)
        return 0.5 * (q * Aq).sum(1) - (c[idx] * q).sum(1), Aq - c[idx]

    return quadratic, A, c


def _uphill(q, idx):
    # a gradient that points uphill defeats every line search
    return (q * q).sum(1), -q


def _wrong_below_half(q, idx):
    # the gradient is wrong below 0.5, so after its first steps each slot's
    # line search fails with memory, then again from steepest descent
    return (q * q).sum(1), np.where(q > 0.5, 2.0 * q, -50.0)


def _rosenbrock(q, idx):
    # the chained Rosenbrock function, which takes L-BFGS dozens of iterations
    x0, x1 = q[:, :-1], q[:, 1:]
    g = np.zeros_like(q)
    g[:, :-1] += -400.0 * x0 * (x1 - x0 ** 2) - 2.0 * (1.0 - x0)
    g[:, 1:] += 200.0 * (x1 - x0 ** 2)
    return (100.0 * (x1 - x0 ** 2) ** 2 + (1.0 - x0) ** 2).sum(1), g


def _mixed_stops():
    """One 6-dimensional batch whose slots stop with every code, in
    different rounds: five quadratics converge in rounds 11 to 13, two
    uphill slots fail their line search in round 21, two wrong-gradient
    slots fail in round 43, and two Rosenbrock slots reach maxiter = 20 in
    rounds 23 and 26. The data are the slot indices."""
    quadratic, _, _ = _quadratics()
    groups = ((quadratic, 0, 5), (_uphill, 5, 7), (_wrong_below_half, 7, 9),
              (_rosenbrock, 9, 11))

    def fun(q, idx):
        f, g = np.empty(len(idx)), np.empty_like(q)
        for kernel, lo, hi in groups:
            sel = (idx >= lo) & (idx < hi)
            f[sel], g[sel] = kernel(q[sel], idx[sel] - lo)
        return f, g

    p0 = np.zeros((11, 6))
    p0[5:7] = 1.0
    p0[7] = [3.0, 2.0, 5.0, 1.5, 0.7, 4.0]
    p0[8] = [4.0, 0.9, 2.5, 3.0, 1.0, 6.0]
    p0[9] = -1.2
    p0[10] = [-1.2, 1.0, -1.2, 1.0, -1.2, 1.0]
    return fun, p0, 20, np.arange(len(p0))


@pytest.fixture(scope="module")
def stability_batch():
    """The objective, starts and maxiter of the one search batch of a
    stability sweep like the benchmark's: n = 10, m1 = m2 = 2, three
    budgets, 6 trials, 3 starts each, so 54 slots."""
    batches = []

    def capture(fun, p, maxiter, *data):
        batches.append((fun, p.copy(), maxiter, *data))
        return _reference_lbfgs(fun, p, maxiter, *data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_lbfgs", capture)
        mc.run_stability_sweep(SUBSPACE10, (0.3, 0.1, 0.03), trials=6, seed=1, restarts=62,
                               R=None, mode="single_point", starts=3)
    assert len(batches) == 1 and batches[0][1].shape[0] == 54
    return batches[0]


class TestDeviationSearch:
    def test_gradient_matches_finite_differences(self):
        # three slots: proximity penalty active, norm penalty active, neither
        sc = ConstraintScenario(kind="subspace", n=6, m1=2, m2=2)
        ens = build_ensemble(sc, COMPLEX_UNIFORM_BALL, 5, R=1.0)
        rng = np.random.default_rng(6)
        M0 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        p = rng.standard_normal((3, 8)) * np.array([[0.3], [1.5], [0.3]])
        x, y = mc._unpack(p, 2, 2)
        u = x @ ens.a.conj().T
        v = y @ ens.b.conj().T
        t0 = u * v
        t0[0] += rng.standard_normal(6) + 1j * rng.standard_normal(6)
        delta = np.array([0.1, 1e3, 1e3])
        M = x[:, :, None] * y[:, None, :]
        assert np.linalg.norm(u[0] * v[0] - t0[0]) > delta[0]
        assert [np.linalg.norm(Mk) > 1.0 for Mk in M] == [False, True, False]
        ac = np.repeat(ens.a.conj()[None], 3, axis=0)
        bc = np.repeat(ens.b.conj()[None], 3, axis=0)

        def objective(q):
            return mc._deviation_objective(q, ac, bc, M0, t0, delta)

        val, grad = objective(p)
        for k in range(3):
            ref_val, ref_grad = _reference_deviation_objective(p[k], ens, M0[k], t0[k],
                                                               delta[k], mc.DEVIATION_MU)
            assert abs(val[k] - ref_val) <= 1e-9 * (1 + abs(ref_val))
            assert np.linalg.norm(grad[k] - ref_grad) <= 1e-9 * (1 + np.linalg.norm(ref_grad))
        num = np.zeros_like(p)
        h = 1e-6
        for i in range(p.shape[1]):
            pp, pm = p.copy(), p.copy()
            pp[:, i] += h
            pm[:, i] -= h
            num[:, i] = (objective(pp)[0] - objective(pm)[0]) / (2 * h)
        for k in range(3):
            assert np.linalg.norm(grad[k] - num[k]) < 1e-4 * (1 + np.linalg.norm(num[k]))

    def test_objective_slots_do_not_depend_on_batch_size(self):
        # 2048 slots of 10 complex residuals exceed numpy's 256 KiB threshold
        # for reusing temporaries in place, which the objective must survive
        rng = np.random.default_rng(12)
        B = 2048
        ac = rng.standard_normal((B, 10, 2)) + 1j * rng.standard_normal((B, 10, 2))
        bc = rng.standard_normal((B, 10, 2)) + 1j * rng.standard_normal((B, 10, 2))
        M0 = rng.standard_normal((B, 2, 2)) + 1j * rng.standard_normal((B, 2, 2))
        t0 = rng.standard_normal((B, 10)) + 1j * rng.standard_normal((B, 10))
        p = rng.standard_normal((B, 8))
        delta = np.full(B, 0.1)
        val, grad = mc._deviation_objective(p, ac, bc, M0, t0, delta)
        for k in range(0, B, 71):
            one = slice(k, k + 1)
            v1, g1 = mc._deviation_objective(p[one], ac[one], bc[one], M0[one],
                                             t0[one], delta[one])
            assert v1[0] == val[k] and np.array_equal(g1[0], grad[k])

    def test_lbfgs_reports_stop_status(self, monkeypatch):
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((5, 6, 6))
        A = Q @ Q.transpose(0, 2, 1) + np.diag(np.arange(1.0, 7.0))
        c = rng.standard_normal((5, 6))

        def quadratic(q, idx):
            Aq = (A[idx] * q[:, None, :]).sum(2)
            return 0.5 * (q * Aq).sum(1) - (c[idx] * q).sum(1), Aq - c[idx]

        slots = np.arange(5)
        p, status = mc._lbfgs(quadratic, np.zeros((5, 6)), 200, slots)
        assert (status == mc.CONVERGED).all()
        assert np.allclose(p, np.linalg.solve(A, c[:, :, None])[:, :, 0], atol=1e-4)
        _, status = mc._lbfgs(quadratic, np.zeros((5, 6)), 1, slots)
        assert (status == mc.MAXITER).all()

        # a search cut after one iteration reports every slot as MAXITER
        sc = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)
        ens = build_ensemble(sc, COMPLEX_UNIFORM_BALL, 7, R=0.8)
        x0, y0 = (v[0] for v in mc._plant_factors(sc, False, [rng]))
        p0 = mc._draw_starts(x0, y0, 0.1, 3, rng)
        monkeypatch.setattr(mc, "DEVIATION_MAXITER", 1)
        _, status = mc._deviation_search(ens.a[None], ens.b[None], x0[None],
                                         y0[None], [0.1], p0[None])
        assert (status == mc.MAXITER).all()

        # a gradient that points uphill defeats every line search
        def uphill(q, idx):
            return (q * q).sum(1), -q

        _, status = mc._lbfgs(uphill, np.ones((2, 3)), 200, np.arange(2))
        assert (status == mc.LINE_SEARCH_FAILED).all()

    def test_lbfgs_resets_a_non_descent_direction(self, monkeypatch):
        # slot 0's direction is flipped uphill in the round after its second
        # memory pair: its memory is cleared, it goes on from steepest descent
        # and converges, and every other slot keeps the bits of its solo run
        quadratic, A, c = _quadratics()
        p0 = np.zeros((5, 6))
        solo = [mc._lbfgs(quadratic, p0[[i]], 200, np.array([i])) for i in range(1, 5)]
        real, seen, after_flip = mc._two_loop, [], []

        def flipped(g, S, Y, rho):
            r = real(g, S, Y, rho)
            used = np.count_nonzero(rho[:, 0])  # slot 0's pairs
            seen.append((used, rho[:, 0].copy(), S[:, 0].copy(), Y[:, 0].copy()))
            if used == 2 and not after_flip:
                after_flip.append(len(seen))
                r[0] = -r[0]
            return r

        monkeypatch.setattr(mc, "_two_loop", flipped)
        p, status = mc._lbfgs(quadratic, p0, 200, np.arange(5))
        used, *memory = seen[after_flip[0]]
        assert used == 0 and not any(m.any() for m in memory)
        assert status[0] == mc.CONVERGED
        assert np.allclose(p[0], np.linalg.solve(A[0], c[0]), atol=1e-4)
        for i, (p_solo, status_solo) in enumerate(solo, 1):
            assert p[i].tobytes() == p_solo[0].tobytes() and status[i] == status_solo[0]

    def test_two_loop_ignores_zero_pairs(self):
        # the kernel runs every step of the recursion on memory padded with
        # zero pairs: each slot gets the bits of its filled pairs alone
        rng = np.random.default_rng(13)
        slots, dim = 33, 6
        filled = rng.integers(0, mc.LBFGS_MEMORY + 1, slots)
        filled[:2] = 0, mc.LBFGS_MEMORY
        g = rng.standard_normal((slots, dim))
        S, Y = rng.standard_normal((2, mc.LBFGS_MEMORY, slots, dim))
        rho = rng.uniform(0.1, 2.0, (mc.LBFGS_MEMORY, slots))
        empty = np.arange(mc.LBFGS_MEMORY)[:, None] >= filled
        S[empty], Y[empty], rho[empty] = 0.0, 0.0, 0.0
        r = mc._two_loop(g, S, Y, rho)
        for i, k in enumerate(filled):
            q, alpha = g[i].copy(), []
            for j in range(k):
                alpha.append(rho[j, i] * np.vecdot(S[j, i], q))
                q -= alpha[j] * Y[j, i]
            ref = q / (rho[0, i] * np.vecdot(Y[0, i], Y[0, i]) if k else 1.0)
            for j in reversed(range(k)):
                ref += (alpha[j] - rho[j, i] * np.vecdot(Y[j, i], ref)) * S[j, i]
            assert np.array_equal(r[i], ref), (i, k)

    def test_lbfgs_matches_lockstep_reference(self, stability_batch):
        # each slot follows the same trial points, accept decisions and
        # memory updates as in the lockstep kernel, so results are bitwise equal
        quadratic, _, _ = _quadratics()
        mixed = _mixed_stops()
        cases = [stability_batch,
                 (quadratic, np.zeros((5, 6)), 200, np.arange(5)),
                 (quadratic, np.zeros((5, 6)), 1, np.arange(5)),
                 (_uphill, np.ones((2, 3)), 200, np.arange(2)),
                 (_wrong_below_half, np.array([[3.0, 2.0], [5.0, 1.5], [0.7, 4.0]]), 200,
                  np.arange(3)),
                 mixed]
        for fun, p0, maxiter, *data in cases:
            p, status = mc._lbfgs(fun, p0, maxiter, *data)
            p_ref, status_ref = _reference_lbfgs(fun, p0, maxiter, *data)
            assert p.tobytes() == p_ref.tobytes()
            assert np.array_equal(status, status_ref)
        # the mixed batch drops slots from its running set with every code
        assert mc._lbfgs(*mixed)[1].tolist() == ([mc.CONVERGED] * 5
                                                 + [mc.LINE_SEARCH_FAILED] * 4
                                                 + [mc.MAXITER] * 2)

    def test_lbfgs_makes_one_call_per_round(self, stability_batch):
        # a slot never waits for another: after the call at the starts,
        # every call is one trial of each running slot, so the calls are one
        # more than the most trials any slot makes
        # (the slot indices ride along as the last data array)
        fun, p0, maxiter, *data = stability_batch

        def counted(kernel):
            calls, trials = 0, np.zeros(p0.shape[0], dtype=int)

            def wrapped(points, *data_and_idx):
                nonlocal calls
                calls += 1
                if calls > 1:
                    trials[data_and_idx[-1]] += 1
                return fun(points, *data_and_idx[:-1])

            kernel(wrapped, p0, maxiter, *data, np.arange(len(p0)))
            return calls, trials

        calls, trials = counted(mc._lbfgs)
        assert calls == 1 + trials.max()
        ref_calls, ref_trials = counted(_reference_lbfgs)
        assert np.array_equal(trials, ref_trials)
        assert ref_calls > 2 * calls

    def test_found_deviation_is_feasible_lower_bound(self):
        sc = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)
        ens = build_ensemble(sc, COMPLEX_UNIFORM_BALL, 7, R=0.8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        M0 = LiftedMatrix(x / (np.linalg.norm(x) * np.linalg.norm(y)), y)
        delta = 0.1
        dev = deviation_alone(ens, M0, delta, 3, rng)
        assert dev > 0.0
        # reported deviations certify feasibility by construction; a crude
        # operator-norm bound gives an upper sanity limit
        smin = np.linalg.svd(
            (ens.b.conj()[:, :, None] * ens.a.conj()[:, None, :]).reshape(10, -1),
            compute_uv=False)[-1]
        assert dev <= 2.0 * delta / smin + 2.0


class TestStabilitySweep:
    def test_mode_precondition_propagates(self):
        sc = ConstraintScenario(kind="subspace", n=5, m1=2, m2=2)
        kw = dict(trials=2, seed=1, restarts=62, R=None, starts=3)
        # the bounds are checked before the first draw, so nothing is drawn
        drawn = []
        real = mc._draw_trials

        def spy(*args, **kw):
            drawn.append(args)
            return real(*args, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_draw_trials", spy)
            with pytest.raises(ValueError, match="n > 2d"):
                mc.run_stability_sweep(sc, (0.1,), mode="uniform", **kw)
            # n <= d fails the single-point bound in the same way; the delta
            # = 0 row before it would draw for recovery
            with pytest.raises(ValueError, match="n > d"):
                mc.run_stability_sweep(sc.with_n(4), (0.0, 0.1), mode="single_point", **kw)
        assert drawn == []

    @pytest.mark.parametrize("sc", [ConstraintScenario("sparsity", 12, 4, 4, 1, 1),
                                    ConstraintScenario("mixed", 12, 4, 4, 2)],
                             ids=["sparsity", "mixed"])
    def test_sparse_scenarios_are_refused_before_any_draw(self, sc, monkeypatch):
        # the deviation search draws dense factors, so its end points leave
        # the support constraint that the stability bound covers
        touched = []
        monkeypatch.setattr(mc, "_draw_trials", lambda *a, **kw: touched.append("draw"))
        monkeypatch.setattr(bounds, "epsilon_of_delta",
                            lambda *a, **kw: touched.append("level"))
        with pytest.raises(ValueError, match="subspace scenarios only"):
            mc.run_stability_sweep(sc, (0.1, 0.0), trials=4, seed=1, restarts=62, R=None,
                                   mode="single_point", starts=3)
        assert touched == []

    def test_full_supports_search_as_subspace(self):
        # the refusal reads the support sizes, not the kind: full supports
        # constrain nothing, and give the subspace rows
        kw = dict(trials=2, seed=5, restarts=62, R=None, mode="single_point", starts=3)
        full = ConstraintScenario("sparsity", 10, 2, 2, 2, 2)
        assert (mc.run_stability_sweep(full, (0.1, 0.0), **kw)
                == mc.run_stability_sweep(SUBSPACE10, (0.1, 0.0), **kw))

    def test_zero_delta_row_has_no_violations(self):
        row = mc.run_stability_sweep(SUBSPACE10, (0.0,), trials=5, seed=2, restarts=62,
                                     R=None, mode="single_point", starts=3)[0]
        assert row["violations"] == 0
        assert row["max_deviation"] < 1e-8

    def test_deviation_grows_with_delta_and_csv_schema(self):
        rows = mc.run_stability_sweep(SUBSPACE10, (0.3, 0.03), trials=4, seed=3, restarts=62,
                                      R=None, mode="single_point", starts=3)
        assert rows[0]["max_deviation"] > rows[1]["max_deviation"]
        assert tuple(rows[0]) == mc.STABILITY_COLUMNS + ("search_status",)
        text = mc.sweep_csv(mc.STABILITY_COLUMNS, rows)
        assert text.splitlines()[0] == ("delta,trials,violations,violation_rate,"
                                        "epsilon,bound_raw,bound_clamped,"
                                        "max_deviation,mean_lifted_error")

    def test_batch_composition_does_not_change_output(self):
        # the sweep searches its delta > 0 trials in batches; each trial's
        # deviation must equal the one found when it is searched alone
        sc = SUBSPACE10
        deltas = (0.3, 0.1, 0.0)
        kw = dict(trials=6, seed=4, restarts=62, R=None, mode="single_point", starts=3)
        rows = mc.run_stability_sweep(sc, deltas, **kw)
        csv = mc.sweep_csv(mc.STABILITY_COLUMNS, rows)
        assert csv == mc.sweep_csv(mc.STABILITY_COLUMNS, mc.run_stability_sweep(sc, deltas, **kw))
        # each batch is drawn as one stack, so a sweep never holds more than
        # one batch of ensembles: batches of 4 trials split rows, and the
        # middle one spans two rows in one draw; a batch of 12 spans every
        # delta > 0 row. The last stack is the delta = 0 row, drawn for
        # recovery
        real = mc._draw_trials
        for slots, want in ((4 * kw["starts"], [4, 4, 4, 6]),
                            (12 * kw["starts"], [12, 6])):
            drawn = []

            def spy(sc, tag, seeds, *, R):
                drawn.append(len(seeds))
                return real(sc, tag, seeds, R=R)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mc, "SEARCH_BATCH_SLOTS", slots)
                mp.setattr(mc, "_draw_trials", spy)
                small = mc.run_stability_sweep(sc, deltas, **kw)
            assert drawn == want
            assert mc.sweep_csv(mc.STABILITY_COLUMNS, small) == csv
            assert ([r.get("search_status") for r in small]
                    == [r.get("search_status") for r in rows])
        for row_idx, row in enumerate(rows[:2]):
            alone = []
            for i in range(kw["trials"]):
                trial_seed = mix_seed(kw["seed"], row_idx, i)
                ens, M0 = mc.draw_trial(sc, COMPLEX_UNIFORM_BALL, trial_seed, R=None)
                alone.append(deviation_alone(ens, M0, row["delta"], kw["starts"],
                                             np.random.default_rng(mix_seed(trial_seed, 2))))
            assert row["max_deviation"] == max(alone)
            assert row["mean_lifted_error"] == float(np.mean(alone))
            assert sum(row["search_status"]) == kw["trials"] * kw["starts"]


@pytest.fixture(scope="module")
def scaling_rows():
    return mc.run_stability_sweep(SUBSPACE10, (0.3, 0.1, 0.03), trials=6, seed=9, restarts=62,
                                  R=None, mode="single_point", starts=3)


def test_max_deviation_scaling_law(scaling_rows):
    # observed worst deviation should scale at least like delta^(alpha/2)
    # with alpha = 1 - d/n (slope tolerance 0.15 below alpha/2)
    sc = ConstraintScenario(kind="subspace", n=10, m1=2, m2=2)
    deltas = (0.3, 0.1, 0.03)
    devs = [r["max_deviation"] for r in scaling_rows]
    slope = np.polyfit(np.log(deltas), np.log(devs), 1)[0]
    alpha = 1 - bounds.sample_complexity_d(sc) / sc.n
    assert slope >= alpha / 2 - 0.15


def test_search_quality_no_worse_than_scipy_reference(scaling_rows):
    # the deviations are lower-bound evidence, so a weaker search would make
    # the stability check easier to pass; these are the rows found by scipy's
    # L-BFGS-B on the same starts, and none may fall more than 2 % below them
    mean_ref = (1.164775, 0.387067, 0.114834)
    max_ref = (1.443066, 0.542234, 0.210431)
    for row, mean_dev, max_dev in zip(scaling_rows, mean_ref, max_ref):
        assert row["mean_lifted_error"] >= 0.98 * mean_dev
        assert row["max_deviation"] >= 0.98 * max_dev


def test_per_trial_seeds_are_documented_mix():
    # row/trial seeds come from the splitmix64 mix, so single trials are
    # reproducible in isolation
    assert mix_seed(9, 0, 3) == mix_seed(9, 0, 3)
    assert mix_seed(9, 0, 3) != mix_seed(9, 1, 3)
