"""Star-product tests.

The independent oracle maps polynomials to Weyl-ordered operators in the
algebra [X, Y] = i*theta, composes them there, and maps the normal-ordered
result back to a symbol.  Symbol composition under that correspondence IS
the star product, so agreement here checks the bidifferential series
against plain operator algebra.
"""

from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as hst

from ncpain.ring import DimensionMismatchError, NearSingularError, commutator
from ncpain.moyal import DegreeOverflowError, MoyalPolynomial, star_product

THETA = 0.3


# -- Weyl-ordering oracle ----------------------------------------------------

def _word_to_normal(word, theta):
    # Multiply out a word of letters "x"/"y" into normal order X^a Y^b,
    # using Y^b X = X Y^b - i*theta*b*Y^(b-1).
    acc = {(0, 0): 1.0 + 0j}
    for letter in word:
        out = {}
        for (a, b), c in acc.items():
            if letter == "x":
                out[(a + 1, b)] = out.get((a + 1, b), 0j) + c
                if b:
                    key = (a, b - 1)
                    out[key] = out.get(key, 0j) - 1j * theta * b * c
            else:
                out[(a, b + 1)] = out.get((a, b + 1), 0j) + c
        acc = out
    return acc


def _weyl_order_monomial(m, n, theta):
    words = set(permutations("x" * m + "y" * n))
    acc = {}
    for word in words:
        for key, c in _word_to_normal(word, theta).items():
            acc[key] = acc.get(key, 0j) + c
    return {key: c / len(words) for key, c in acc.items()}


def _weyl_order(coeffs, theta):
    acc = {}
    for (m, n), c in coeffs.items():
        for key, w in _weyl_order_monomial(m, n, theta).items():
            acc[key] = acc.get(key, 0j) + c * w
    return acc


def _normal_product(f, g, theta):
    # (X^a Y^b)(X^c Y^d) = sum_k C(b,k) C(c,k) k! (-i theta)^k
    #                      X^(a+c-k) Y^(b+d-k)
    acc = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            for k in range(min(b, c) + 1):
                w = comb(b, k) * comb(c, k) * factorial(k) \
                    * (-1j * theta) ** k
                key = (a + c - k, b + d - k)
                acc[key] = acc.get(key, 0j) + cf * cg * w
    return acc


def _weyl_symbol(normal, theta):
    # Invert the triangular map monomial -> weyl ordering by peeling off
    # the top-degree term at each step.
    remaining = {k: v for k, v in normal.items() if abs(v) > 1e-300}
    symbol = {}
    while remaining:
        key = max(remaining, key=lambda k: (k[0] + k[1], k))
        coeff = remaining.pop(key)
        symbol[key] = symbol.get(key, 0j) + coeff
        for sub, w in _weyl_order_monomial(*key, theta).items():
            if sub == key:
                continue
            remaining[sub] = remaining.get(sub, 0j) - coeff * w
        remaining = {k: v for k, v in remaining.items() if abs(v) > 1e-300}
    return symbol


def star_oracle(f: MoyalPolynomial, g: MoyalPolynomial) -> dict:
    h = _normal_product(_weyl_order(f.coeffs, f.theta),
                        _weyl_order(g.coeffs, g.theta), f.theta)
    return _weyl_symbol(h, f.theta)


def assert_coeffs_close(got: MoyalPolynomial, expected: dict, tol=1e-12):
    keys = set(got.coeffs) | set(expected)
    for key in keys:
        diff = abs(got.coefficient(*key) - expected.get(key, 0j))
        assert diff <= tol, f"coefficient {key}: off by {diff}"


def poly(coeffs, theta=THETA, cap=16):
    return MoyalPolynomial(coeffs, theta, cap)


def test_oracle_roundtrip():
    sym = {(2, 1): 0.5 - 0.25j, (0, 3): 1.0, (1, 0): -2.0, (0, 0): 0.7}
    back = _weyl_symbol(_weyl_order(sym, THETA), THETA)
    for key in set(sym) | set(back):
        assert abs(sym.get(key, 0j) - back.get(key, 0j)) <= 1e-13


def test_oracle_reproduces_basic_bracket():
    x1 = {(1, 0): 1.0}
    x2 = {(0, 1): 1.0}
    fg = _normal_product(_weyl_order(x1, THETA), _weyl_order(x2, THETA),
                         THETA)
    gf = _normal_product(_weyl_order(x2, THETA), _weyl_order(x1, THETA),
                         THETA)
    bracket = {k: fg.get(k, 0j) - gf.get(k, 0j) for k in set(fg) | set(gf)}
    sym = _weyl_symbol(bracket, THETA)
    assert abs(sym.get((0, 0), 0j) - 1j * THETA) <= 1e-15


class TestStarProduct:
    def test_coordinate_bracket_exact(self):
        x1 = MoyalPolynomial.x1(THETA)
        x2 = MoyalPolynomial.x2(THETA)
        bracket = commutator(x1, x2)
        assert bracket.coeffs == {(0, 0): 1j * THETA}

    def test_theta_zero_is_pointwise(self, rng):
        f = poly({(2, 0): 1.3, (1, 1): -0.4j, (0, 0): 0.2}, theta=0.0)
        g = poly({(0, 2): 0.9, (1, 0): 2.0}, theta=0.0)
        product = star_product(f, g)
        expected = {}
        for (m1, n1), c1 in f.coeffs.items():
            for (m2, n2), c2 in g.coeffs.items():
                key = (m1 + m2, n1 + n2)
                expected[key] = expected.get(key, 0j) + c1 * c2
        assert_coeffs_close(product, expected, tol=0.0)

    def test_x1sq_times_x2(self):
        f = poly({(2, 0): 1.0})
        got = star_product(f, MoyalPolynomial.x2(THETA))
        # k = 1 term only: x1^2 x2 + i theta x1
        assert_coeffs_close(got, {(2, 1): 1.0, (1, 0): 1j * THETA}, tol=0.0)
        assert_coeffs_close(got, star_oracle(f, MoyalPolynomial.x2(THETA)))

    def test_x1sq_x2sq_commutator(self):
        # Frozen from the operator oracle: 4*i*theta*x1*x2, no other terms
        # (third derivatives of degree-2 polynomials vanish, so the series
        # stops at k = 2 and the k = 2 terms cancel in the commutator).
        f = poly({(2, 0): 1.0})
        g = poly({(0, 2): 1.0})
        fg = _normal_product(_weyl_order(f.coeffs, THETA),
                             _weyl_order(g.coeffs, THETA), THETA)
        gf = _normal_product(_weyl_order(g.coeffs, THETA),
                             _weyl_order(f.coeffs, THETA), THETA)
        oracle = _weyl_symbol(
            {k: fg.get(k, 0j) - gf.get(k, 0j) for k in set(fg) | set(gf)},
            THETA)
        assert set(oracle) == {(1, 1)}
        assert abs(oracle[(1, 1)] - 4j * THETA) <= 1e-15
        got = commutator(f, g)
        assert_coeffs_close(got, {(1, 1): 4j * THETA}, tol=1e-15)

    @pytest.mark.parametrize("fc,gc", [
        ({(1, 0): 1.0}, {(0, 1): 1.0}),
        ({(2, 0): 1.0}, {(0, 2): 1.0}),
        ({(1, 1): 1.0}, {(1, 1): 1.0}),
        ({(2, 1): 1.0 - 0.5j}, {(1, 2): 0.3}),
        ({(3, 0): 1.0, (0, 1): 2.0}, {(0, 3): 1.0, (1, 0): -1.0}),
        ({(2, 2): 0.7, (1, 0): 1j}, {(2, 1): -0.2, (0, 0): 1.5}),
    ])
    def test_matches_operator_oracle(self, fc, gc):
        f, g = poly(fc), poly(gc)
        assert_coeffs_close(star_product(f, g), star_oracle(f, g))

    def test_self_commutator_zero(self):
        f = poly({(2, 1): 1.0, (0, 1): -2j})
        assert commutator(f, f).coeffs == {}


def small_polys(max_degree=4):
    reals = hst.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)
    coeff = hst.builds(complex, reals, reals)
    keys = hst.tuples(hst.integers(0, max_degree), hst.integers(0, max_degree)) \
        .filter(lambda k: k[0] + k[1] <= max_degree)
    return hst.dictionaries(keys, coeff, max_size=5).map(
        lambda c: poly(c, theta=THETA))


class TestStarAlgebra:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, f, g, h):
        lhs = star_product(star_product(f, g), h)
        rhs = star_product(f, star_product(g, h))
        scale = max(1.0, f.norm() * g.norm() * h.norm())
        diff = lhs - rhs
        worst = max((abs(c) for c in diff.coeffs.values()), default=0.0)
        assert worst <= 1e-12 * scale

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, f, g, h):
        scale = max(1.0, (f.norm() + g.norm()) * h.norm())
        left = star_product(f + g, h) - (star_product(f, h)
                                         + star_product(g, h))
        right = star_product(h, f + g) - (star_product(h, f)
                                          + star_product(h, g))
        assert left.norm() <= 1e-12 * scale
        assert right.norm() <= 1e-12 * scale

    def test_theta_to_zero_is_linear(self):
        f_coeffs = {(2, 0): 1.0, (0, 1): 0.5}
        g_coeffs = {(0, 2): 1.0, (1, 0): -0.7}
        pointwise = star_product(poly(f_coeffs, theta=0.0),
                                 poly(g_coeffs, theta=0.0))

        def error(theta):
            prod = star_product(poly(f_coeffs, theta=theta),
                                poly(g_coeffs, theta=theta))
            diff = {k: prod.coefficient(*k) - pointwise.coefficient(*k)
                    for k in set(prod.coeffs) | set(pointwise.coeffs)}
            return max(abs(v) for v in diff.values())

        e1, e2 = error(1e-2), error(5e-3)
        assert 0.4 <= e2 / e1 <= 0.6


def dense_poly(rng, degree, theta, cap):
    return MoyalPolynomial(
        {(m, n): complex(*rng.normal(size=2))
         for m in range(degree + 1) for n in range(degree + 1 - m)},
        theta, cap)


def as_approximate(p):
    return MoyalPolynomial(p.coeffs, p.theta, p.cap, approximate=True)


def assert_truncated_product(f, g):
    """f * g with f approximate against the exact product, cropped.

    The exact product is taken in the ring with twice the cap, so it never
    overflows; cropped to the cap it is what a truncated product means.
    """
    wide = [MoyalPolynomial(p.coeffs, p.theta, 2 * p.cap) for p in (f, g)]
    exact = {key: c for key, c in star_product(*wide).coeffs.items()
             if key[0] + key[1] <= f.cap}
    got = as_approximate(f) * g
    assert got.approximate
    assert_coeffs_close(got, exact, tol=1e-13 * f.norm() * g.norm())
    return got


class TestTruncatedProduct:
    """Products with an approximate operand go through the dense FFT path.

    theta = 0.05 keeps the dense products within a few |f||g|; the FFT's
    rounding is absolute, so a product much larger than |f||g| would set
    the scale instead.
    """

    @pytest.mark.parametrize("cap,g_degree", [(16, 16), (24, 12), (24, 24)])
    def test_dense_operands(self, rng, cap, g_degree):
        f = dense_poly(rng, cap, 0.05, cap)
        g = dense_poly(rng, g_degree, 0.05, cap)
        assert_truncated_product(f, g)
        assert_truncated_product(g, f)

    def test_constant_operand(self, rng):
        # kmax = 0 at theta != 0: one derivative order, one term.
        c = MoyalPolynomial({(0, 0): 0.7 - 1.2j}, THETA, 8)
        f = dense_poly(rng, 8, THETA, 8)
        assert_truncated_product(c, f)
        assert_truncated_product(f, c)

    def test_one_batched_transform_per_derivative_order(self, rng,
                                                        monkeypatch):
        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        f = as_approximate(dense_poly(rng, 16, 0.05, 16))
        g = dense_poly(rng, 16, 0.05, 16)
        assert (f * g).approximate
        kmax = 16
        assert 0 < len(calls) <= 4 * (kmax + 1) + 1

    def test_theta_zero(self, rng):
        f = dense_poly(rng, 6, 0.0, 8)
        g = dense_poly(rng, 5, 0.0, 8)
        assert_truncated_product(f, g)

    def test_zero_operand(self, rng):
        f = dense_poly(rng, 8, THETA, 8)
        zero = MoyalPolynomial.zero(THETA, 8)
        for got in (as_approximate(f) * zero, as_approximate(zero) * f):
            assert got.coeffs == {} and got.approximate

    def test_degree_under_cap(self, rng):
        f = dense_poly(rng, 3, THETA, 16)
        g = dense_poly(rng, 4, THETA, 16)
        got = assert_truncated_product(f, g)
        assert got.degree() <= 7

    @given(small_polys(), small_polys())
    # A tiny f: |f| must not underflow to 0, which leaves no room for the
    # FFT's rounding.
    @example(poly({(0, 0): 6.078117472112732e-214j}), poly({(0, 2): 0.5j}))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_series(self, f, g):
        cap = 4
        f, g = (MoyalPolynomial(p.coeffs, THETA, cap) for p in (f, g))
        got = assert_truncated_product(f, g)
        # The operator-ordering oracle shares no code with either summation;
        # it drops values below 1e-300, hence the absolute floor.
        oracle = {key: c for key, c in star_oracle(f, g).items()
                  if key[0] + key[1] <= cap}
        assert_coeffs_close(got, oracle,
                            tol=1e-13 * f.norm() * g.norm() + 1e-290)

    def test_star_product_truncates_approximate_operand(self):
        f = MoyalPolynomial({(0, 0): 1, (1, 0): 0.3, (0, 1): 0.2j}, 0.05, 8)
        finv = f.inv()
        x1 = MoyalPolynomial.x1(0.05, 8)
        product = star_product(finv, x1)
        assert product.approximate
        assert product.coeffs == (finv * x1).coeffs
        bracket = commutator(finv, x1)
        assert bracket.approximate
        assert bracket.coeffs == (star_product(finv, x1)
                                  - star_product(x1, finv)).coeffs


class TestErrors:
    def test_degree_overflow_raises(self):
        f = poly({(5, 0): 1.0}, cap=8)
        g = poly({(0, 4): 1.0}, cap=8)
        with pytest.raises(DegreeOverflowError):
            star_product(f, g)

    def test_constructor_rejects_over_cap(self):
        with pytest.raises(DegreeOverflowError):
            poly({(9, 0): 1.0}, cap=8)

    def test_theta_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            star_product(poly({(1, 0): 1.0}, theta=0.1),
                         poly({(0, 1): 1.0}, theta=0.2))

    def test_cap_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            star_product(poly({(1, 0): 1.0}, cap=8),
                         poly({(0, 1): 1.0}, cap=16))

    def test_mixed_backend(self, rng):
        from ncpain.ring import MatrixElement
        with pytest.raises(DimensionMismatchError):
            poly({(1, 0): 1.0}) * MatrixElement.eye(2)


class TestInverse:
    def test_constant(self):
        f = poly({(0, 0): 2.0})
        assert f.inv().coeffs == {(0, 0): 0.5}

    def test_star_inverse_two_sided(self):
        f = poly({(0, 0): 1.0, (1, 0): 0.15, (0, 2): -0.1j}, cap=24)
        finv = f.inv()
        assert finv.approximate
        one = f.one_like()
        assert (f * finv - one).norm() <= 1e-10
        assert (finv * f - one).norm() <= 1e-10

    def test_approximate_flag_propagates(self):
        f = poly({(0, 0): 1.0, (1, 0): 0.1})
        g = poly({(0, 1): 0.5})
        assert not (f * g).approximate
        assert (f.inv() * g).approximate
        assert (g + f.inv()).approximate

    def test_zero_constant_term_raises(self):
        with pytest.raises(NearSingularError):
            poly({(1, 0): 1.0}).inv()

    @pytest.mark.parametrize("bad", [
        {(0, 0): 1.0, (1, 0): float("nan")},
        {(0, 0): complex(0.0, float("nan"))},
        {(0, 0): float("inf"), (0, 1): 0.1},
        {(0, 0): 1.0, (2, 1): complex(float("-inf"), 0.0)},
    ])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(NearSingularError, match="non-finite"):
            poly(bad).inv()
