import numpy as np
import pytest

from blindid.ensembles import (COMPLEX_GENERIC, ConstraintScenario, Ensemble,
                               build_ensemble)
from blindid.lifting import (LiftedMatrix, apply_A, apply_A_adjoint, apply_G,
                             calibrated_isometry_radius, mean_isometry_radius,
                             operator_matrix, support_rows)
from blindid.spectral import circular_convolve, dft
from oracles import dft_matrix


def make_ensemble(n=6, m1=2, m2=3, seed=0):
    sc = ConstraintScenario(kind="subspace", n=n, m1=m1, m2=m2)
    return build_ensemble(sc, COMPLEX_GENERIC, seed)


def manual_ensemble(D, E):
    """Ensemble with prescribed D, E, for hand-computable instances."""
    D = np.asarray(D, dtype=np.complex128)
    E = np.asarray(E, dtype=np.complex128)
    n = D.shape[0]
    sc = ConstraintScenario("subspace", n, D.shape[1], E.shape[1])
    F = dft_matrix(n)
    return Ensemble(scenario=sc, tag=COMPLEX_GENERIC, seed=0, R=None,
                    D=D, E=E, a=(F @ D).conj(), b=(F @ E).conj())


class TestLiftedMatrix:
    def test_factors_must_reproduce_matrix(self):
        with pytest.raises(ValueError):
            LiftedMatrix(M=np.eye(2), x=np.array([1.0, 0]), y=np.array([1.0, 1]))

    def test_factor_pairing_enforced(self):
        with pytest.raises(ValueError):
            LiftedMatrix(M=np.zeros((2, 2)), x=np.array([1.0, 0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LiftedMatrix(M=np.array([[np.nan, 0], [0, 0]]))
        with pytest.raises(ValueError):
            LiftedMatrix(M=np.array([[0, 1j * np.inf], [0, 0]]))

    def test_accepts_non_contiguous_matrix(self):
        # apply_A_adjoint's einsum may return a Fortran-ordered matrix
        M = np.asfortranarray(np.arange(8.0).reshape(4, 2) + 1j)
        assert np.array_equal(LiftedMatrix(M=M).M, M)
        assert np.array_equal(LiftedMatrix(M=M.T).M, M.T)

    def test_from_factors_and_norm(self):
        M = LiftedMatrix.from_factors([1, 2j], [3, 1])
        assert M.M.shape == (2, 2)
        assert np.isclose(np.linalg.norm(M.M),
                          np.linalg.norm(np.outer([1, 2j], [3, 1])))

    def test_zero(self):
        assert np.linalg.norm(LiftedMatrix.from_factors(np.zeros(2), np.zeros(3)).M) == 0.0


class TestOperators:
    def test_hand_instance(self):
        # D = E = (1,1)^T, x = 2, y = 3: time domain (2,2) conv (3,3) = (12,12)
        ens = manual_ensemble([[1.0], [1.0]], [[1.0], [1.0]])
        M = LiftedMatrix.from_factors([2.0], [3.0])
        assert np.allclose(apply_G(ens, M), [12.0, 12.0], atol=1e-12)
        assert np.allclose(apply_A(ens, M), [12.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        ens = make_ensemble()
        assert np.allclose(apply_G(ens, LiftedMatrix.from_factors(np.zeros(2), np.zeros(3))), 0.0)
        assert np.allclose(apply_A(ens, np.zeros((2, 3))), 0.0)

    def test_scaling_orbit_invariance(self):
        ens = make_ensemble()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sigma = 2 + 1j
        z1 = apply_G(ens, LiftedMatrix.from_factors(x, y))
        z2 = apply_G(ens, LiftedMatrix.from_factors(sigma * x, y / sigma))
        assert np.linalg.norm(z1 - z2) < 1e-10 * np.linalg.norm(z1)

    def test_factored_path_equals_general_path(self):
        ens = make_ensemble()
        rng = np.random.default_rng(6)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        M = LiftedMatrix.from_factors(x, y)
        direct = circular_convolve(ens.D @ x, ens.E @ y)
        assert np.linalg.norm(apply_G(ens, M) - direct) < 1e-10
        assert np.linalg.norm(apply_G(ens, M.M) - direct) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 256])
    def test_factored_path_equals_direct_convolution(self, n):
        ens = make_ensemble(n=n, m1=3, m2=2, seed=n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = circular_convolve(ens.D @ x, ens.E @ y)
        z = apply_G(ens, LiftedMatrix.from_factors(x, y))
        assert np.linalg.norm(z - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_frequency_entries_against_row_loop(self):
        ens = make_ensemble()
        rng = np.random.default_rng(7)
        M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        vals = apply_A(ens, M)
        for j in range(ens.n):
            expected = ens.a[j].conj() @ M @ ens.b[j].conj()
            assert abs(vals[j] - expected) < 1e-10

    def test_frequency_time_link(self):
        ens = make_ensemble()
        rng = np.random.default_rng(8)
        M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        z = apply_G(ens, M)
        assert np.linalg.norm(apply_A(ens, M) - dft(z) / np.sqrt(ens.n)) < 1e-10
        assert abs(np.linalg.norm(apply_A(ens, M)) * np.sqrt(ens.n)
                   - np.linalg.norm(z)) < 1e-10

    def test_linearity(self):
        ens = make_ensemble()
        rng = np.random.default_rng(9)
        M1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        M2 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a, b = 2 - 1j, 0.5j
        lhs = apply_A(ens, a * M1 + b * M2)
        rhs = a * apply_A(ens, M1) + b * apply_A(ens, M2)
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_shape_mismatch(self):
        ens = make_ensemble()
        with pytest.raises(ValueError):
            apply_A(ens, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            apply_A_adjoint(ens, np.zeros(5))


class TestAdjoint:
    def test_zero(self):
        ens = make_ensemble()
        assert np.linalg.norm(apply_A_adjoint(ens, np.zeros(6)).M) == 0.0

    def test_defining_identity(self):
        # <w, A(M)> = <A*(w), M> with the first argument conjugated
        ens = make_ensemble()
        rng = np.random.default_rng(10)
        for _ in range(20):
            M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lhs = np.vdot(w, apply_A(ens, M))
            rhs = np.vdot(apply_A_adjoint(ens, w).M, M)
            assert abs(lhs - rhs) < 1e-10

    def test_single_term_expansion(self):
        ens = make_ensemble(n=1, m1=1, m2=1, seed=3)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        expected = w[0] * np.outer(ens.a[0], ens.b[0])
        assert np.linalg.norm(apply_A_adjoint(ens, w).M - expected) < 1e-12


def test_operator_matrix_column_major():
    ens = make_ensemble()
    rng = np.random.default_rng(12)
    M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    op = operator_matrix(ens)
    assert op.shape == (6, 6)
    assert np.linalg.norm(op @ M.flatten(order="F") - apply_A(ens, M)) < 1e-10


def test_operator_matrix_support_restriction():
    ens = make_ensemble()
    rng = np.random.default_rng(13)
    Msub = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    M = np.zeros((2, 3), dtype=np.complex128)
    M[np.ix_([1], [0, 2])] = Msub
    op = operator_matrix(ens, rows=[1], cols=[0, 2])
    assert np.linalg.norm(op @ Msub.flatten(order="F") - apply_A(ens, M)) < 1e-10



def test_operator_matrix_stacks_supports_bit_for_bit():
    # a stack of supports gives each support's own matrix, and each stacked
    # SVD the singular values of its own call
    ens = make_ensemble(n=7, m1=4, m2=3)
    rows = np.array([[0, 1], [3, 1], [2, 3]])
    cols = np.array([[2, 0], [0, 1], [1, 2]])
    ops = operator_matrix(ens, rows=rows, cols=cols)
    assert ops.shape == (3, 7, 4)
    s = np.linalg.svd(ops, compute_uv=False)
    for t in range(3):
        op = operator_matrix(ens, rows=list(rows[t]), cols=list(cols[t]))
        assert np.array_equal(ops[t], op)
        assert np.array_equal(s[t], np.linalg.svd(op, compute_uv=False))
    a, b = support_rows(ens, rows)
    assert a.shape == (3, 7, 2) and b.shape == (7, 3)
    assert np.array_equal(operator_matrix(ens, rows=rows)[1],
                          operator_matrix(ens, rows=[3, 1]))


class TestStackedApplyA:
    @pytest.mark.parametrize("n,m1,m2", [(1, 1, 1), (1, 5, 1), (3, 5, 5), (6, 2, 3),
                                         (7, 4, 9), (33, 8, 3), (64, 3, 2)])
    def test_slots_do_not_depend_on_the_stack(self, n, m1, m2):
        # each slot has the bits of a call on it alone, whatever the stack
        # size and the slot's position in it
        ens = make_ensemble(n=n, m1=m1, m2=m2, seed=n + m1)
        rng = np.random.default_rng(n * m2)
        T = 37
        M = rng.standard_normal((T, m1, m2)) + 1j * rng.standard_normal((T, m1, m2))
        z = apply_A(ens, M)
        assert z.shape == (T, n)
        zr = apply_A(ens, M[::-1].copy())
        for t in range(T):
            alone = apply_A(ens, M[t].copy())
            assert np.array_equal(z[t], alone) and np.array_equal(zr[T - 1 - t], alone)
            assert np.array_equal(apply_A(ens, M[t:t + 1])[0], alone)
        for size in (2, 5, 16):
            assert np.array_equal(apply_A(ens, M[3:3 + size]), z[3:3 + size])

    def test_stack_matches_operator_matrix(self):
        ens = make_ensemble(n=7, m1=4, m2=3, seed=14)
        rng = np.random.default_rng(14)
        M = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        op = operator_matrix(ens)
        z = apply_A(ens, M)
        for t in range(5):
            assert np.linalg.norm(op @ M[t].flatten(order="F") - z[t]) < 1e-10

    def test_rejects_bad_shapes(self):
        ens = make_ensemble()
        for bad in (np.zeros(6), np.zeros((4, 2, 4)), np.zeros((4, 3, 2)),
                    np.zeros((2, 4, 2, 3))):
            with pytest.raises(ValueError):
                apply_A(ens, bad)

    def test_lifted_matrix_argument(self):
        ens = make_ensemble()
        rng = np.random.default_rng(15)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        M = LiftedMatrix.from_factors(x, y)
        assert np.array_equal(apply_A(ens, M), apply_A(ens, M.M))


class TestIsometryRadii:
    def test_printed_values(self):
        assert np.isclose(mean_isometry_radius(4, 2, 2), 1.0)
        assert np.isclose(mean_isometry_radius(8, 2, 2), (16 / 64) ** 0.25)
        assert np.isclose(mean_isometry_radius(9, 1, 1), (9 / 81) ** 0.25)

    def test_calibrated_values(self):
        assert np.isclose(calibrated_isometry_radius(8, 2, 2), (9 / 64) ** 0.25)
        assert np.isclose(calibrated_isometry_radius(2, 1, 1), 1.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            mean_isometry_radius(0, 1, 1)
        with pytest.raises(ValueError):
            calibrated_isometry_radius(4, 0, 1)
