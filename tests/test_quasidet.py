import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as hst

from ncpain.ring import MatrixElement, NearSingularError, random_invertible
from ncpain.moyal import MoyalPolynomial
from ncpain.quasidet import (BlockMatrix, block_inverse,
                             commutative_limit_residual, determinant_ratio,
                             quasideterminant, quasideterminant_oracle)

from conftest import all_quasideterminants


def scalar_block(rows):
    return BlockMatrix([[MatrixElement.scalar(x) for x in row]
                        for row in rows])


def random_block(rng, n, d, max_condition=1e3):
    while True:
        mat = BlockMatrix([[random_invertible(rng, d, max_condition=1e3)
                            for _ in range(n)] for _ in range(n)])
        arr = np.block([[mat.entry(i, j).data for j in range(n)]
                        for i in range(n)])
        if np.linalg.cond(arr) <= max_condition:
            return mat


class TestBlockArithmetic:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)],
                             ids=["unbatched", "batched"])
    def test_subtraction_is_one_ring_operation_per_entry(
            self, rng, monkeypatch, shape):
        def entry():
            return MatrixElement(rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))

        zero = MatrixElement.zeros(3)
        a = BlockMatrix([[entry(), zero], [-zero, entry()]])
        b = BlockMatrix([[entry(), -zero], [zero, entry()]])
        expected = a + (-b)

        def no_negation(el):
            raise AssertionError("a - b negated an entry")

        monkeypatch.setattr(MatrixElement, "__neg__", no_negation)
        got = a - b
        for i in range(2):
            for j in range(2):
                assert got.entry(i, j).data.tobytes() \
                    == expected.entry(i, j).data.tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_point_norms_are_the_norm_of_each_position(self, rng, d):
        # Nine random positions: every third scaled past 1e154, where the
        # plain sums of squares overflow, and every third near it, where
        # the sum of the entry norms' squares may overflow.
        scales = np.resize([1.0, 1e160, 1e153], 9)[:, None, None]
        # Then 20 positions whose entries have norms x with x ** 2 != x * x,
        # so norm() and point_norms() keep the same bits only when they
        # square and sum the entry norms the same way.
        xs = rng.standard_normal(200_000).tolist()
        awkward = np.array([x for x in xs if x ** 2 != x * x][:60])
        assert len(awkward) == 60
        corner = np.zeros((d, d))
        corner[0, 0] = 1.0

        def batch(size, norms):
            noise = (rng.standard_normal((9, d, d))
                     + 1j * rng.standard_normal((9, d, d)))
            return MatrixElement(np.concatenate(
                [scales * size * noise, norms[:, None, None] * corner]))

        one = MatrixElement.eye(d)
        lam = 1e-3 * (2 - 3j)  # small, so it does not swamp the others
        m = BlockMatrix([[(-2j * lam) * one, batch(1.0, awkward[0::3])],
                         [batch(3.0, awkward[1::3]),
                          batch(1e-3, awkward[2::3])]])
        with np.errstate(over="ignore"):
            got = m.point_norms()
            expected = [BlockMatrix([[
                MatrixElement(e.data[k]) if e.data.ndim == 3 else e
                for e in row] for row in m.entries]).norm()
                for k in range(29)]
        assert [x.hex() for x in got] == [x.hex() for x in expected]
        # Every norm is finite, and math.hypot, which scales for itself,
        # agrees with the scaled sums past 1e154 too.
        parts = np.concatenate([np.broadcast_to(e.data, (29, d, d)).reshape(
            29, -1) for row in m.entries for e in row], axis=1)
        reference = [math.hypot(*p.real, *p.imag) for p in parts]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, reference, rtol=1e-14, atol=0)

    def test_subtraction_needs_the_same_shape(self):
        one = MatrixElement.eye(2)
        with pytest.raises(ValueError):
            BlockMatrix([[one, one]]) - BlockMatrix([[one], [one]])


class TestBlockInverse:
    def test_identity_of_blocks(self):
        eye = MatrixElement.eye(2)
        zero = MatrixElement.zeros(2)
        m = BlockMatrix([[eye if i == j else zero for j in range(3)]
                         for i in range(3)])
        assert block_inverse(m).allclose(m)

    def test_scalar_2x2_closed_form(self):
        m = scalar_block([[1, 2], [3, 4]])
        expected = scalar_block([[-2, 1], [1.5, -0.5]])
        assert block_inverse(m).allclose(expected)
        # invertible although the trailing diagonal block is 0
        m = scalar_block([[1, 1], [1, 0]])
        expected = scalar_block([[0, 1], [1, -1]])
        assert block_inverse(m).allclose(expected)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 3)])
    def test_two_sided_over_matrix_ring(self, rng, monkeypatch, n, d):
        m = random_block(rng, n, d)
        inverted = []
        ring_inv = MatrixElement.inv
        monkeypatch.setattr(MatrixElement, "inv",
                            lambda el: inverted.append(el) or ring_inv(el))
        inv = block_inverse(m)
        monkeypatch.undo()
        # one leading block and one Schur complement per split
        assert len(inverted) == n
        eye = m.identity_like()
        assert (m @ inv - eye).norm() <= 1e-9 * max(1.0, m.norm())
        assert (inv @ m - eye).norm() <= 1e-9 * max(1.0, m.norm())

    def test_singular_names_pivot_block(self):
        m = scalar_block([[1, 1], [1, 1]])
        with pytest.raises(NearSingularError) as err:
            block_inverse(m)
        assert str(err.value) == ("matrix is near-singular (condition ~ inf) "
                                  "[Schur complement of leading block]")

    def test_rectangular_rejected(self, rng):
        m = BlockMatrix([[MatrixElement.scalar(1.0)] * 2])
        with pytest.raises(ValueError):
            block_inverse(m)


class TestQuasideterminant:
    def test_2x2_expansion_matches_definition(self, rng):
        # qd(A,0,0) = a00 - a01 a11^-1 a10 with genuinely noncommuting blocks
        entries = [[random_invertible(rng, 3) for _ in range(2)]
                   for _ in range(2)]
        m = BlockMatrix(entries)
        expected = entries[0][0] - entries[0][1] \
            * entries[1][1].inv() * entries[1][0]
        assert quasideterminant(m, 0, 0).allclose(expected, rtol=1e-9)

    def test_identity_diagonal_positions(self):
        for n in (1, 2, 4):
            m = scalar_block(np.eye(n).tolist())
            for i in range(n):
                value = quasideterminant(m, i, i)
                assert value.allclose(MatrixElement.scalar(1.0))

    def test_frozen_scalar_values(self):
        m = scalar_block([[1, 2], [3, 4]])
        # det ratios: -2/4, and the inverse-consistent (0,1) expansion
        assert quasideterminant(m, 0, 0).allclose(MatrixElement.scalar(-0.5))
        got = quasideterminant(m, 0, 1)
        assert got.allclose(MatrixElement.scalar(2 / 3), rtol=1e-12)
        oracle = quasideterminant_oracle(m, 0, 1)
        assert got.allclose(oracle, rtol=1e-12)

    def test_1x1_returns_entry(self):
        m = scalar_block([[7.0]])
        assert quasideterminant(m, 0, 0).allclose(MatrixElement.scalar(7.0))

    def test_singular_submatrix_names_position(self):
        m = scalar_block([[1, 2], [0, 4]])
        with pytest.raises(NearSingularError) as err:
            quasideterminant(m, 0, 1)  # deleted submatrix is [[0]]
        assert "(0,1)" in str(err.value)

    def test_oracle_refuses_a_zero_inverse_entry(self):
        # [[1,1],[1,0]] is invertible, but entry (0,0) of its inverse is 0.
        m = scalar_block([[1, 1], [1, 0]])
        with pytest.raises(NearSingularError) as err:
            quasideterminant_oracle(m, 0, 0)
        assert str(err.value) == ("matrix is near-singular (condition ~ inf) "
                                  "[inverse entry (0,0)]")
        assert err.value.condition == float("inf")

    def test_refusals_name_every_pivot_on_the_way(self, rng):
        # 3x3 blocks of three 2x2 positions; entry (0,0) is singular at
        # position 1 only, so both routes refuse it as the pivot inside the
        # leading diagonal block of the matrix they invert.
        entries = [[MatrixElement(4 * np.eye(2) * (i == j) + 0.5 * (
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal(
                (3, 2, 2)))) for j in range(3)] for i in range(3)]
        data = np.array(entries[0][0].data)
        data[1] = [[1, 0], [0, 0]]
        entries[0][0] = MatrixElement(data)
        a = BlockMatrix(entries)
        refusal = "matrix is near-singular (condition ~ inf)"
        cases = ((quasideterminant, "[submatrix for position (2,2)]", 2),
                 (quasideterminant_oracle, "[leading diagonal block]", 0))
        for route, outer, pos in cases:
            with pytest.raises(NearSingularError) as err:
                route(a, pos, pos)
            inner = f"{refusal} [leading diagonal block]"
            assert str(err.value) == f"{inner} {outer}"
            assert err.value.indices == (1,)
            assert err.value.condition == float("inf")
            assert str(err.value.__cause__) == inner
            assert err.value.__cause__.indices == (1,)

    @given(hst.integers(0, 10_000), hst.integers(2, 5), hst.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence(self, seed, n, d):
        rng = np.random.default_rng(seed)
        m = random_block(rng, n, d)
        for i in range(n):
            for j in range(n):
                direct = quasideterminant(m, i, j)
                oracle = quasideterminant_oracle(m, i, j)
                ref = max(1.0, oracle.norm())
                assert (direct - oracle).norm() <= 1e-8 * ref

    def test_all_nine_for_3x3(self, rng):
        m = random_block(rng, 3, 2)
        values = all_quasideterminants(m)
        assert len(values) == 3 and all(len(row) == 3 for row in values)
        for i in range(3):
            for j in range(3):
                oracle = quasideterminant_oracle(m, i, j)
                assert (values[i][j] - oracle).norm() \
                    <= 1e-8 * max(1.0, oracle.norm())

    def test_scaling_covariance_2x2(self, rng):
        m = BlockMatrix([[random_invertible(rng, 2) for _ in range(2)]
                         for _ in range(2)])
        c = 2.0  # power of two keeps the scaling near-exact
        scaled = BlockMatrix([[c * m.entry(i, j) for j in range(2)]
                              for i in range(2)])
        lhs = quasideterminant(scaled, 0, 0)
        rhs = c * quasideterminant(m, 0, 0)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())


class TestCommutativeLimit:
    def test_frozen_2x2(self):
        m = scalar_block([[1, 2], [3, 4]])
        assert commutative_limit_residual(m, 0, 0) <= 1e-14
        assert determinant_ratio(m, 0, 0) == pytest.approx(-0.5)

    def test_identity_4x4(self):
        m = scalar_block(np.eye(4).tolist())
        assert commutative_limit_residual(m, 1, 1) <= 1e-14
        assert determinant_ratio(m, 1, 1) == pytest.approx(1.0)

    @given(hst.integers(0, 10_000), hst.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_scalar_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_block(rng, n, 1)
        for i in range(n):
            for j in range(n):
                try:
                    scale = max(1.0, abs(determinant_ratio(m, i, j)))
                    assert commutative_limit_residual(m, i, j) \
                        <= 1e-10 * scale
                except NearSingularError:
                    # a deleted submatrix may legitimately be singular
                    continue

    @pytest.mark.parametrize("a11", [0.0, 1e-310])
    def test_refuses_as_the_quasideterminant_does(self, a11):
        # The deleted submatrix [[a11]] is zero or subnormal: both routes
        # refuse it through MatrixElement.inv, with the same message.
        m = scalar_block([[1, 2], [3, a11]])
        with pytest.raises(NearSingularError) as ratio:
            determinant_ratio(m, 0, 0)
        with pytest.raises(NearSingularError) as direct:
            quasideterminant(m, 0, 0)
        assert str(ratio.value) == str(direct.value)
        assert str(ratio.value).endswith("[submatrix for position (0,0)]")

    def test_small_but_conditioned_submatrix_is_accepted(self):
        m = scalar_block([[1, 2], [3, 1e-13]])
        assert commutative_limit_residual(m, 0, 0) \
            <= 1e-14 * abs(determinant_ratio(m, 0, 0))

    def test_requires_scalar_backend(self, rng):
        m = random_block(rng, 2, 2)
        with pytest.raises(ValueError):
            determinant_ratio(m, 0, 0)


class TestMoyalBackend:
    def test_quasidet_over_star_polynomials(self):
        theta, cap = 0.05, 24
        def p(coeffs):
            return MoyalPolynomial(coeffs, theta, cap)
        m = BlockMatrix([
            [p({(0, 0): 1.0, (1, 0): 0.08}), p({(0, 0): 0.2, (0, 1): 0.05})],
            [p({(0, 0): -0.1, (1, 1): 0.04}), p({(0, 0): 1.3, (2, 0): 0.06})],
        ])
        direct = quasideterminant(m, 0, 0)
        oracle = quasideterminant_oracle(m, 0, 0)
        # both routes go through truncated star inverses; agreement is
        # limited by the series tail, not by the quasideterminant algebra
        assert (direct - oracle).norm() <= 1e-8

    def test_norm_past_the_square_safe_range(self):
        # One entry's norm squared overflows; the sum is scaled instead.
        def p(coeffs):
            return MoyalPolynomial(coeffs, 0.05, 4)
        m = BlockMatrix([[p({(0, 0): 3e200, (1, 0): -4e200j}),
                          p({(0, 0): 0.5})],
                         [p({(1, 1): 1e154}), p({(0, 0): 1.0, (0, 2): 2.0})]])
        entry_norms = [e.norm() for row in m.entries for e in row]
        assert max(entry_norms) > 1e154
        assert np.isfinite(m.norm())
        assert m.norm() == pytest.approx(math.hypot(*entry_norms), rel=1e-15)
