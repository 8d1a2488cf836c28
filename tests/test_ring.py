import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as hst

from ncpain.grid import GridFunction
from ncpain.moyal import MoyalPolynomial
from ncpain.ring import (COND_FLOOR, DimensionMismatchError, MatrixElement,
                         NearSingularError, _certified_inverse,
                         anticommutator, commutator, random_invertible)

from conftest import gaussian_element


def c128(lo=-1.0, hi=1.0):
    reals = hst.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return hst.builds(complex, reals, reals)


@hst.composite
def matrix_elements(draw, d=None, invertible=False):
    d = draw(hst.integers(1, 4)) if d is None else d
    entries = draw(hst.lists(c128(), min_size=d * d, max_size=d * d))
    el = MatrixElement(np.array(entries, dtype=complex).reshape(d, d))
    if invertible:
        # shift towards the identity to keep the draw well-conditioned
        el = el + 3.0
    return el


@hst.composite
def element_triples(draw):
    d = draw(hst.integers(1, 4))
    return tuple(draw(matrix_elements(d=d)) for _ in range(3))


class TestCommutator:
    def test_self_commutator_is_zero(self, rng):
        x = gaussian_element(rng, 3)
        assert commutator(x, x).norm() == 0.0

    def test_diagonal_matrices_commute(self):
        a = MatrixElement(np.diag([1.0, 2.0]))
        b = MatrixElement(np.diag([3.0, 4.0]))
        assert commutator(a, b).norm() == 0.0

    def test_elementary_matrices(self):
        a = MatrixElement([[0, 1], [0, 0]])
        b = MatrixElement([[0, 0], [1, 0]])
        expected = MatrixElement([[1, 0], [0, -1]])
        assert commutator(a, b).allclose(expected)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            commutator(gaussian_element(rng, 2), gaussian_element(rng, 3))

    @given(element_triples())
    def test_antisymmetry_cancels_exactly(self, triple):
        a, b, _ = triple
        total = commutator(a, b) + commutator(b, a)
        assert total.norm() <= 1e-15 * max(1.0, a.norm() * b.norm())

    @given(matrix_elements(d=1), matrix_elements(d=1))
    def test_scalars_always_commute(self, a, b):
        assert commutator(a, b).norm() <= 1e-15 * max(1.0, a.norm() * b.norm())


class TestAnticommutator:
    def test_central_scalar_doubles(self, rng):
        v = gaussian_element(rng, 3)
        z = 0.7 - 0.2j
        left = anticommutator(z * v.one_like(), v)
        assert left.allclose((2 * z) * v)

    def test_with_zero(self, rng):
        x = gaussian_element(rng, 2)
        assert anticommutator(x, x.zero_like()).norm() == 0.0

    def test_pauli_x_z_anticommute(self):
        sx = MatrixElement([[0, 1], [1, 0]])
        sz = MatrixElement([[1, 0], [0, -1]])
        assert anticommutator(sx, sz).norm() == 0.0


class TestInverse:
    def test_identity(self):
        one = MatrixElement.eye(3)
        assert one.inv().allclose(one)

    def test_scaled_identity(self):
        two = 2.0 * MatrixElement.eye(2)
        assert two.inv().allclose(0.5 * MatrixElement.eye(2))

    def test_closed_form_2x2(self):
        m = MatrixElement([[1, 2], [3, 4]])
        expected = MatrixElement([[-2, 1], [1.5, -0.5]])
        assert m.inv().allclose(expected)

    def test_two_sided(self, rng):
        m = random_invertible(rng, 3)
        one = m.one_like()
        assert (m * m.inv()).allclose(one, rtol=1e-10, atol=1e-10)
        assert (m.inv() * m).allclose(one, rtol=1e-10, atol=1e-10)

    def test_singular_raises_with_condition(self):
        with pytest.raises(NearSingularError) as err:
            MatrixElement([[1, 1], [1, 1]]).inv()
        assert err.value.condition == float("inf")

    def test_near_singular_raises(self):
        m = MatrixElement([[1, 0], [0, 1e-14]])
        with pytest.raises(NearSingularError) as err:
            m.inv()
        assert err.value.condition > 1e12

    def test_involution(self, rng):
        for d in (1, 2, 3):
            m = random_invertible(rng, d, max_condition=1e3)
            assert m.inv().inv().allclose(m, rtol=1e-9, atol=1e-9)


class TestNorm:
    def test_zero(self):
        assert MatrixElement.zeros(3).norm() == 0.0

    def test_identity_d2(self):
        assert MatrixElement.eye(2).norm() == pytest.approx(np.sqrt(2))

    def test_three_four_five(self):
        assert MatrixElement([[3, 4], [0, 0]]).norm() == pytest.approx(5.0)

    def test_submultiplicative(self, rng):
        a, b = gaussian_element(rng, 4), gaussian_element(rng, 4)
        assert (a * b).norm() <= a.norm() * b.norm() * (1 + 1e-12)

    def test_huge_entries_are_scaled_and_the_rest_keep_their_bits(self, rng):
        # Positions past 2**500 are summed from entries scaled by a power of
        # two: finite up to the float range, and equal to math.hypot, which
        # scales for itself.  The other positions are the plain sum.
        noise = (rng.standard_normal((6, 3, 3))
                 + 1j * rng.standard_normal((6, 3, 3)))
        scales = np.array([1.0, 1e200, 1e-3, 1e300, 2.0 ** 499, 1e150])
        data = scales[:, None, None] * noise
        batch = MatrixElement(data)
        got = batch.point_norms()
        reference = [math.hypot(*x.real.ravel(), *x.imag.ravel())
                     for x in data]
        np.testing.assert_allclose(got, reference, rtol=1e-15, atol=0)
        for k in (0, 2, 4, 5):
            flat = data[k].ravel()
            plain = np.sqrt(flat.real @ flat.real + flat.imag @ flat.imag)
            assert got[k] == plain == MatrixElement(data[k]).norm()
        assert [MatrixElement(x).norm() for x in data] == got.tolist()
        assert batch.norm() == pytest.approx(math.hypot(*reference),
                                             rel=1e-15)
        with np.errstate(over="ignore"):
            assert MatrixElement(np.full((2, 2), 1e308)).norm() == np.inf
        assert MatrixElement([[np.inf, 1.0]] * 2).norm() == np.inf


def svd_first_inverse(el):
    """``MatrixElement.inv`` without the certificate: the SVD test of every
    position first; if all pass, each position whose inverse LAPACK cannot
    compute, or computes as not finite, is refused; else ``np.linalg.inv``."""
    low, high = el.singular_extremes()
    smin, smax = el.point_extremes()
    if low <= COND_FLOOR * high or high == 0.0:
        what = "matrix is near-singular"
        bad = (smin <= COND_FLOOR * smax) | (smax == 0.0)
    else:
        what = "matrix inverse is not finite"
        bad = np.array([not _lapack_inverts(a)
                        for a in el.data.reshape(-1, el.d, el.d)])
    if bad.any():
        bad = np.flatnonzero(bad)
        low, high = float(smin.flat[bad[0]]), float(smax.flat[bad[0]])
        cond = float("inf") if low == 0.0 else high / low
        raise NearSingularError(
            f"{what} (condition ~ {cond:.3e})", condition=cond,
            indices=tuple(bad.tolist()) if el.data.ndim == 3 else None)
    return MatrixElement(np.linalg.inv(el.data))


def _lapack_inverts(a):
    try:
        with np.errstate(all="ignore"):
            return np.isfinite(np.linalg.inv(a)).all()
    except np.linalg.LinAlgError:
        return False


def _outcome(inverse, data):
    try:
        return "inverse", inverse(MatrixElement(data)).data.tobytes()
    except NearSingularError as exc:
        return "refused", str(exc), exc.condition, exc.indices


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q


def _conditioned(rng, d, cond, scale=1.0):
    """U diag(s) V^H with s from 1 down to 1/cond, times ``scale``."""
    s = scale * np.geomspace(1.0, 1.0 / cond, d)
    return (_unitary(rng, d) * s) @ _unitary(rng, d).conj().T


def _special_positions(rng, d):
    zero = np.zeros((d, d), complex)
    deficient = rng.standard_normal((d, d)) + 0j
    deficient[-1] = deficient[0]  # two equal rows; d = 1 is the zero
    nan, inf = (rng.standard_normal((d, d)) + 0j for _ in range(2))
    nan[0, -1] = np.nan
    inf[-1, 0] = np.inf
    return {"zero": zero, "deficient": deficient if d > 1 else zero,
            "nan": nan, "inf": inf,
            "denormal": 1e-310 * np.eye(d, dtype=complex),
            "huge": _conditioned(rng, d, 10.0, scale=1e200),
            # Squared norms that underflow or overflow.
            "tiny-ill": _conditioned(rng, d, 1e100, scale=1e-200),
            "huge-ill": _conditioned(rng, d, 1e100, scale=1e200),
            # At d = 2 the norms' bound equals smin/smax = COND_FLOOR here,
            # which the SVD test refuses: certifying needs its margin.
            "at-the-floor": np.diag([1.0] * (d - 1) + [COND_FLOOR]) + 0j}


@pytest.mark.filterwarnings("error")
class TestCertifiedInverse:
    """``inv`` certifies well-conditioned positions from the inverse and
    the norms, and runs the SVD test only on the rest: it must accept,
    refuse and report exactly as the SVD-first inverse does."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_the_svd_first_inverse(self, rng, d):
        sweep = [_conditioned(rng, d, cond, scale=10.0 ** rng.uniform(-8, 8))
                 for cond in np.logspace(0, 16, 33)]
        specials = _special_positions(rng, d)
        for data in sweep + list(specials.values()):
            assert _outcome(MatrixElement.inv, data) \
                == _outcome(svd_first_inverse, data)
        well = np.stack(sweep[:20])  # condition numbers up to 1e9.5
        batches = [np.stack(sweep), well, np.stack(sweep[::-1])]
        for special in specials.values():
            for k in (0, 7, 19):
                batch = well.copy()
                batch[k] = special
                batches.append(batch)
        for batch in batches:
            assert _outcome(MatrixElement.inv, batch) \
                == _outcome(svd_first_inverse, batch)
        # Both routes are taken: the certificate decides the well
        # conditioned positions, the SVD the rest.
        _, certified = _certified_inverse(np.stack(sweep), COND_FLOOR)
        assert certified[0] and (d == 1 or not certified.all())


def _subnormal_matrices(rng, count=20_000):
    """Real Gaussian 2x2-5x5 matrices, each times one scale in
    1e-322..1e-312: the SVD test passes most of them, and LAPACK either
    cannot invert them or returns an inverse that is not finite."""
    for _ in range(count):
        d = int(rng.integers(2, 6))
        yield 10.0 ** -rng.uniform(312, 322) * rng.standard_normal((d, d))


@pytest.mark.filterwarnings("error")
class TestSubnormalInverse:
    def test_scaled_identity_is_refused(self):
        with pytest.raises(NearSingularError) as err:
            MatrixElement(1e-310 * np.eye(2)).inv()
        assert str(err.value) == \
            "matrix inverse is not finite (condition ~ 1.000e+00)"
        assert err.value.condition == 1.0 and err.value.indices is None

    def test_every_matrix_is_refused(self, rng):
        for data in _subnormal_matrices(rng):
            with pytest.raises(NearSingularError):
                MatrixElement(data).inv()

    def test_a_batch_masks_only_its_subnormal_positions(self, rng):
        # Each size's matrices alternate with well-conditioned positions in
        # one batch; dropping what each refusal lists, as the masked
        # dressing does, leaves exactly the well-conditioned positions.
        by_size = {}
        for data in _subnormal_matrices(rng):
            d = len(data)
            by_size.setdefault(d, []).extend(
                [data, np.eye(d) + 0.1 * rng.standard_normal((d, d))])
        for batch in map(np.array, by_size.values()):
            keep = np.arange(len(batch))
            while True:
                try:
                    inverse = MatrixElement(batch[keep]).inv()
                    break
                except NearSingularError as exc:
                    keep = np.delete(keep, exc.indices)
            assert keep.tolist() == list(range(1, len(batch), 2))
            assert np.array_equal(inverse.data,
                                  np.linalg.inv(batch[keep] + 0j))


class TestRingAxioms:
    @given(element_triples())
    @settings(max_examples=60)
    def test_associativity_on_unit_operands(self, triple):
        norm_ok = [x for x in triple if x.norm() > 1e-6]
        if len(norm_ok) < 3:
            return
        a, b, c = (x * (1.0 / x.norm()) for x in norm_ok)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert (lhs - rhs).norm() <= 1e-12

    @given(element_triples())
    @settings(max_examples=60)
    def test_distributivity(self, triple):
        a, b, c = triple
        scale = max(1.0, a.norm() * (b.norm() + c.norm()))
        assert (a * (b + c) - (a * b + a * c)).norm() <= 1e-12 * scale

    @given(element_triples(), c128())
    @settings(max_examples=60)
    def test_scalars_are_central(self, triple, scalar):
        a, b, _ = triple
        scale = max(1.0, abs(scalar) * a.norm() * b.norm())
        assert ((scalar * a) * b - a * (scalar * b)).norm() <= 1e-12 * scale

    def test_one_and_zero(self, rng):
        a = gaussian_element(rng, 3)
        assert (a * a.one_like()).allclose(a)
        assert (a.one_like() * a).allclose(a)
        assert (a + a.zero_like()).allclose(a)

    def test_scalar_addition_means_scalar_times_one(self, rng):
        a = gaussian_element(rng, 2)
        assert (a + 3).allclose(a + 3 * a.one_like())
        assert (2 - a).allclose(2 * a.one_like() - a)

    def test_scalar_minus_element_is_one_subtraction(self, monkeypatch):
        a = MatrixElement(np.array([[0.5, 0.0], [-0.0, 2 - 1j]]))
        for c in (2, -0.25j, 0.0):
            expected = (-a) + c * a.one_like()
            with monkeypatch.context() as m:
                m.setattr(MatrixElement, "__neg__", None)
                got = c - a
            assert got.data.tobytes() == expected.data.tobytes()

    def test_power(self, rng):
        a = gaussian_element(rng, 2)
        assert (a ** 3).allclose(a * a * a)
        assert (a ** 0).allclose(a.one_like())

    def test_matmul_is_the_product_and_arrays_are_refused(self, rng):
        a = MatrixElement(np.stack([gaussian_element(rng, 3).data
                                    for _ in range(4)]))
        b = gaussian_element(rng, 3)
        assert (a @ b).data.tobytes() == (a * b).data.tobytes()
        p = MoyalPolynomial({(0, 0): 0.5, (1, 0): 1.0 - 0.25j}, theta=0.3)
        q = MoyalPolynomial({(0, 1): 2.0, (1, 1): 0.5j}, theta=0.3)
        assert (p @ q).coeffs == (p * q).coeffs
        for x in (b, p):
            with pytest.raises(TypeError):
                x @ 2
        # An array never meets an element, in either order: no object
        # array is built.
        arr = np.ones((3, 3), complex)
        for op in (operator.add, operator.sub, operator.mul, operator.matmul):
            for left, right in ((arr, b), (b, arr)):
                with pytest.raises(TypeError):
                    op(left, right)
        for c in (np.float64(2.0), np.complex128(1 - 2j), np.int64(3)):
            for got in (c * b, b * c):
                assert isinstance(got, MatrixElement)
                assert got.data.tobytes() == (complex(c) * b).data.tobytes()


class TestBatch:
    @staticmethod
    def _stack(elements):
        return MatrixElement(np.stack([e.data for e in elements]))

    def test_operations_act_per_position(self, rng):
        a = [random_invertible(rng, 2) for _ in range(4)]
        b = [random_invertible(rng, 2) for _ in range(4)]
        c = gaussian_element(rng, 2)
        batch_a, batch_b = self._stack(a), self._stack(b)
        checks = (
            (batch_a * batch_b, [x * y for x, y in zip(a, b)]),
            (batch_a - batch_b, [x - y for x, y in zip(a, b)]),
            (batch_a * c, [x * c for x in a]),
            (c + batch_a, [c + x for x in a]),
            ((2 - 1j) * batch_a, [(2 - 1j) * x for x in a]),
            (batch_a.inv(), [x.inv() for x in a]),
        )
        for batched, pointwise in checks:
            assert batched.data.shape == (4, 2, 2)
            for k, expected in enumerate(pointwise):
                assert np.array_equal(batched.data[k], expected.data)
        assert batch_a.point_norms().tolist() == [x.norm() for x in a]

    def test_scalars_are_central_per_position(self):
        zs = [1.0, 2.5, -3.0]
        batch = MatrixElement.scalars(zs, 2)
        for k, z in enumerate(zs):
            expected = z * MatrixElement.eye(2)
            assert np.array_equal(batch.data[k], expected.data)

    def test_refusal_lists_every_failing_position(self):
        with pytest.raises(NearSingularError) as err:
            MatrixElement(_refusal_batch()).inv()
        assert err.value.indices == (1, 3)
        assert err.value.condition == float("inf")
        assert err.value.relabel("here").indices == (1, 3)

    def test_non_finite_position_is_refused(self):
        data = np.stack([np.eye(2)] * 3).astype(complex)
        data[2, 0, 1] = np.nan
        with pytest.raises(NearSingularError) as err:
            MatrixElement(data).inv()
        assert err.value.indices == (2,)

    def test_unbatched_refusal_has_no_indices(self):
        with pytest.raises(NearSingularError) as err:
            MatrixElement.zeros(2).inv()
        assert err.value.indices is None

    def test_singular_extremes_of_worst_position(self):
        data = np.stack([np.diag([1.0, 0.5]), np.diag([2.0, 1e-3]),
                         np.eye(2)])
        assert MatrixElement(data).singular_extremes() == (1e-3, 2.0)


def _refusal_batch():
    data = np.stack([np.eye(2)] * 5).astype(complex)
    data[1] = 0.0
    data[3] = np.diag([1.0, 1e-14])
    return data


class TestOneSvdPerInverse:
    """``inv`` decides and describes a refusal from one ``point_extremes``
    call on the positions the certificate leaves open, and a certified
    inverse runs none; ``singular_extremes`` is never called."""

    @pytest.mark.parametrize("data, refused, svds", [
        (_refusal_batch(), True, 1),
        (np.zeros((2, 2)), True, 1),
        (1e-310 * np.eye(2), True, 1),
        (np.diag([1.0, 1e-8]), False, 1),  # accepted by the SVD test
        (np.eye(3) + 0.1 * np.arange(9).reshape(3, 3), False, 0),
    ], ids=["batched-near-singular", "zero", "subnormal", "svd-accepted",
            "certified"])
    def test_point_extremes_calls(self, monkeypatch, data, refused, svds):
        calls = []
        extremes = MatrixElement.point_extremes

        def counted(el):
            calls.append(el.data.shape)
            return extremes(el)

        def forbidden(el):
            raise AssertionError("inv called singular_extremes")

        monkeypatch.setattr(MatrixElement, "point_extremes", counted)
        monkeypatch.setattr(MatrixElement, "singular_extremes", forbidden)
        if refused:
            with pytest.raises(NearSingularError):
                MatrixElement(data).inv()
        else:
            MatrixElement(data).inv()
        assert len(calls) == svds


class TestOwnership:
    def test_results_are_read_only_and_own_their_data(self, rng):
        for shape in ((3, 3), (4, 3, 3)):
            a = MatrixElement(rng.standard_normal(shape) + 3 * np.eye(3))
            b = MatrixElement(rng.standard_normal(shape) + 3 * np.eye(3))
            results = (a + b, a - b, a * b, 2 * a, a * 0.5j, -a, a.inv(),
                       a + 3, 1 - a, a ** 2)
            for r in results:
                assert not r.data.flags.writeable
                with pytest.raises(ValueError):
                    r.data[..., 0, 0] = 0.0
                for operand in (a, b):
                    assert not np.shares_memory(r.data, operand.data)

    def test_identity_and_zero_are_shared_and_frozen(self, rng):
        a, b = gaussian_element(rng, 3), gaussian_element(rng, 3)
        assert a.one_like() is b.one_like() is MatrixElement.eye(3)
        assert a.zero_like() is b.zero_like() is MatrixElement.zeros(3)
        assert a.one_like() is not gaussian_element(rng, 2).one_like()
        for shared in (a.one_like(), a.zero_like()):
            with pytest.raises(ValueError):
                shared.data[0, 0] = 5.0
        assert np.array_equal(a.one_like().data, np.eye(3))
        assert np.array_equal(a.zero_like().data, np.zeros((3, 3)))

    def test_constructor_copies_its_input(self):
        arr = np.eye(2, dtype=complex)
        el = MatrixElement(arr)
        assert not np.shares_memory(el.data, arr)
        arr[0, 0] = 5.0
        assert arr.flags.writeable
        assert el.data[0, 0] == 1.0

    def test_batch_position_does_not_view_the_batch(self):
        batch = MatrixElement(np.stack([np.eye(2)] * 3))
        grid = GridFunction(0.0, 0.1, batch)
        assert not np.shares_memory(grid[1].data, grid.batch.data)
        assert not np.shares_memory(grid[0:2].data, grid.batch.data)
