"""Star-product polynomials in two variables with deformation parameter theta.

The product is the full bidifferential series

    f * g = sum_(a,b) (i*theta/2)^(a+b) (-1)^b / (a! b!) *
            (d1^a d2^b f) (d2^a d1^b g)

which terminates on polynomials.  One table lists its term weights and two
summations consume them.  A product of exact operands is exact: it is
summed in dict arithmetic, term by term and within a term over f's
coefficients, then g's, in insertion order.  Terms that cancel cancel
exactly, so the basic coordinate relation x1*x2 - x2*x1 = i*theta holds to
the last bit and a theta = 0 product equals the plain polynomial product
summed in that order.

``inv`` is approximate: it sums a geometric series truncated at the degree
cap and is labelled as such in CLI reports.  Products that touch an
approximate operand, and every term of that series, are truncated at the
cap and summed as 2-D convolutions of dense coefficient arrays through the
FFT: one batched transform of each operand per derivative order a, covering
every term (a, b) of that order, and one inverse transform.  Their rounding
is absolute: about eps*|f||g| per coefficient while the series terms stay
near |f||g| (theta times the degree small), so a coefficient that should be
zero may read about 1e-17.  Large series terms set a larger scale.
"""

from __future__ import annotations

from functools import cache
from math import factorial, hypot, perm

import numpy as np

from .ring import DimensionMismatchError, NearSingularError, RingElement

DEFAULT_CAP = 16

_INV_MAX_TERMS = 500
_INV_DIVERGENCE_FACTOR = 1e8


class DegreeOverflowError(ValueError):
    """An exact product would exceed the configured degree cap."""


def _weights(f: MoyalPolynomial, g: MoyalPolynomial) -> list:
    """w[a][b] of each term w (d1^a d2^b f)(d2^a d1^b g), a + b <= kmax."""
    kmax = 0 if f.theta == 0.0 else min(f.degree(), g.degree())
    return [[(0.5j * f.theta) ** (a + b) * (-1) ** b
             / (factorial(a) * factorial(b)) for b in range(kmax + 1 - a)]
            for a in range(kmax + 1)]


def _deriv(coeffs: dict, a: int, b: int) -> list:
    """(key, coefficient) pairs of d1^a d2^b, in the dict's order."""
    return [((m - a, n - b), c * (perm(m, a) * perm(n, b)))
            for (m, n), c in coeffs.items() if m >= a and n >= b]


def _dense(p: MoyalPolynomial) -> np.ndarray:
    """Coefficients as a square array a[m, n], sized to the degree."""
    a = np.zeros((p.degree() + 1,) * 2, dtype=complex)
    for (m, n), c in p.coeffs.items():
        a[m, n] = c
    return a


@cache
def _shifts(size: int) -> tuple:
    """Gather tables that apply d^k for every k at once: x^(k+j) -> x^j.

    ``index[k, j] = k + j`` (clamped to the array) and ``weight[k, j] =
    (k+j)! / j!`` is the weight that d^k puts on x^(k+j), zero where k + j
    runs off the end, so ``v[index[:n]] * weight[:n]`` stacks d^0 v ..
    d^(n-1) v of a coefficient vector v, each padded to its length.
    """
    k, j = np.indices((size, size))
    weight = np.ones((size, size))
    for row in range(1, size):
        weight[row] = weight[row - 1] * (j[0] + row)
    weight[k + j >= size] = 0.0
    index = np.minimum(k + j, size - 1)
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def _star_dense(f: MoyalPolynomial, g: MoyalPolynomial) -> dict:
    """Star product of f and g cropped to the cap triangle, through the FFT.

    One pass per d1-order a.  The transform along the axis that d1^a acts
    on is shared by every d2-order b: for f, d1^a F is transformed along
    axis 0 once, and the d2^b shifts of its columns for every b are
    gathered into one stack and transformed along axis 1 in one batched
    call; g likewise with the axes swapped, its stack carrying the term
    weights.  The sum over b of the stacks' products is accumulated, and
    inverted once at the end: 4 (kmax + 1) + 1 calls into numpy.fft.
    Transforms of side deg f + deg g + 1 hold the whole linear
    convolution, so nothing wraps.
    """
    F, G = _dense(f), _dense(g)
    size = len(F) + len(G) - 1
    (index_f, shift_f), (index_g, shift_g) = _shifts(len(F)), _shifts(len(G))
    acc = np.zeros((size, size), dtype=complex)
    for a, weights in enumerate(_weights(f, g)):
        nb = len(weights)
        cols = np.fft.fft(F[index_f[a]] * shift_f[a, :, None], size, axis=0)
        rows = np.fft.fft(G[:, index_g[a]] * shift_g[a], size, axis=1)
        # stack_f[k, b, l] and stack_g[b, k, l]: transforms of d1^a d2^b F
        # and of weight * d2^a d1^b G at frequency (k, l).
        stack_f = np.fft.fft(cols[:, index_f[:nb]] * shift_f[:nb], size,
                             axis=2)
        weighted = shift_g[:nb] * np.array(weights)[:, None]
        stack_g = np.fft.fft(rows[index_g[:nb]] * weighted[:, :, None], size,
                             axis=1)
        stack_g *= stack_f.transpose(1, 0, 2)
        acc += stack_g.sum(axis=0)
    out = np.fft.ifft2(acc).tolist()
    top = min(f.cap, size - 1)
    return {(m, n): out[m][n]
            for m in range(top + 1) for n in range(top + 1 - m)}


class MoyalPolynomial(RingElement):
    """Polynomial in x1, x2 whose ring product is the star product.

    ``coeffs`` maps exponent pairs (m, n) to complex coefficients,
    ``theta`` is the deformation parameter and ``cap`` bounds the total
    degree m + n.  Operations whose exact result would exceed the cap
    raise :class:`DegreeOverflowError` rather than silently truncating,
    so associativity checks stay trustworthy.

    ``inv`` results are marked ``approximate``; arithmetic touching an
    approximate value truncates at the cap instead of raising (the value
    already carries a series tail) and the flag propagates, so downstream
    consumers can tell exact results from capped ones.
    """

    __slots__ = ("coeffs", "theta", "cap", "approximate")

    def __init__(self, coeffs: dict, theta: float, cap: int = DEFAULT_CAP,
                 approximate: bool = False):
        theta = float(theta)
        cap = int(cap)
        if cap < 0:
            raise ValueError("degree cap must be nonnegative")
        clean = {}
        for (m, n), c in coeffs.items():
            m, n = int(m), int(n)
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in monomial ({m},{n})")
            if m + n > cap:
                raise DegreeOverflowError(
                    f"monomial x1^{m} x2^{n} exceeds degree cap {cap}")
            c = complex(c)
            if c != 0:
                clean[(m, n)] = c
        self.coeffs = clean
        self.theta = theta
        self.cap = cap
        self.approximate = bool(approximate)

    @classmethod
    def zero(cls, theta: float, cap: int = DEFAULT_CAP):
        return cls({}, theta, cap)

    @classmethod
    def one(cls, theta: float, cap: int = DEFAULT_CAP):
        return cls({(0, 0): 1.0}, theta, cap)

    @classmethod
    def x1(cls, theta: float, cap: int = DEFAULT_CAP):
        return cls({(1, 0): 1.0}, theta, cap)

    @classmethod
    def x2(cls, theta: float, cap: int = DEFAULT_CAP):
        return cls({(0, 1): 1.0}, theta, cap)

    def degree(self) -> int:
        return max((m + n for m, n in self.coeffs), default=0)

    def coefficient(self, m: int, n: int) -> complex:
        return self.coeffs.get((m, n), 0j)

    def terms(self):
        return sorted(self.coeffs.items())

    def _require_same_ring(self, other):
        if not isinstance(other, MoyalPolynomial):
            raise DimensionMismatchError(
                f"cannot combine MoyalPolynomial with {type(other).__name__}")
        if other.theta != self.theta:
            raise DimensionMismatchError(
                f"deformation mismatch: theta {self.theta} vs {other.theta}")
        if other.cap != self.cap:
            raise DimensionMismatchError(
                f"degree cap mismatch: {self.cap} vs {other.cap}")

    def _add(self, other):
        self._require_same_ring(other)
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0j) + c
        return MoyalPolynomial(merged, self.theta, self.cap,
                               approximate=self.approximate
                               or other.approximate)

    def _mul(self, other):
        return star_product(self, other)

    def _scale(self, scalar):
        return MoyalPolynomial({k: scalar * c for k, c in self.coeffs.items()},
                               self.theta, self.cap,
                               approximate=self.approximate)

    def __neg__(self):
        return self._scale(-1.0)

    def norm(self) -> float:
        return hypot(*map(abs, self.coeffs.values()))

    def one_like(self):
        return MoyalPolynomial.one(self.theta, self.cap)

    def zero_like(self):
        return MoyalPolynomial.zero(self.theta, self.cap)

    def inv(self):
        """Star inverse by geometric series, truncated at the degree cap.

        Approximate: requires a dominant constant term; terms beyond the
        cap are dropped, so ``f * f.inv()`` equals one only up to the
        series tail.  The result carries ``approximate=True``.  A
        non-finite coefficient is refused with NearSingularError.
        """
        if not np.isfinite(list(self.coeffs.values())).all():
            raise NearSingularError(
                "non-finite coefficient in the star-inverse input",
                condition=float("inf"))
        c0 = self.coefficient(0, 0)
        scale = max(self.norm(), 1e-300)
        if abs(c0) <= 1e-12 * scale:
            cond = float("inf") if c0 == 0 else scale / abs(c0)
            raise NearSingularError(
                "constant term too small for the star-inverse series",
                condition=cond)
        u = (self - c0) * (1.0 / c0)
        total = self.one_like()
        term = self.one_like()
        u_norm0 = max(u.norm(), 1.0)
        for _ in range(_INV_MAX_TERMS):
            term = _star(term, u, truncate=True) * (-1.0)
            tn = term.norm()
            if tn == 0.0 or tn <= 1e-16 * max(total.norm(), 1.0):
                total = total + term
                break
            if tn > _INV_DIVERGENCE_FACTOR * u_norm0:
                raise NearSingularError(
                    "star-inverse geometric series diverges",
                    condition=scale / abs(c0))
            total = total + term
        else:
            if tn > 1e-8 * max(total.norm(), 1.0):
                raise NearSingularError(
                    "star-inverse series did not converge "
                    f"within {_INV_MAX_TERMS} terms",
                    condition=scale / abs(c0))
        return total * (1.0 / c0)

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        self._require_same_ring(other)
        keys = set(self.coeffs) | set(other.coeffs)
        ref = max(self.norm(), other.norm())
        for key in keys:
            if abs(self.coefficient(*key) - other.coefficient(*key)) \
                    > atol + rtol * ref:
                return False
        return True

    def __repr__(self):
        body = " + ".join(f"({c})*x1^{m}*x2^{n}"
                          for (m, n), c in self.terms()) or "0"
        return f"MoyalPolynomial[theta={self.theta}]({body})"


def _star(f: MoyalPolynomial, g: MoyalPolynomial,
          truncate: bool) -> MoyalPolynomial:
    """Star product; ``truncate`` crops it to the cap instead of raising.

    Both summations take their term weights from :func:`_weights`.  Exact
    products add them up in dict arithmetic and dict order, so terms that
    cancel cancel exactly (numpy's vectorised complex products round
    differently).
    Truncated ones go through :func:`_star_dense`; their rounding is
    absolute, about eps*|f||g| per coefficient for moderate theta, so a
    coefficient that should be zero may read about 1e-17.
    """
    f._require_same_ring(g)
    if truncate:
        return MoyalPolynomial(_star_dense(f, g), f.theta, f.cap,
                               approximate=True)
    if f.coeffs and g.coeffs and f.degree() + g.degree() > f.cap:
        raise DegreeOverflowError(
            f"star product of degrees {f.degree()} and {g.degree()} "
            f"exceeds degree cap {f.cap}")
    out: dict = {}
    for a, weights in enumerate(_weights(f, g)):
        for b, weight in enumerate(weights):
            dg = _deriv(g.coeffs, b, a)
            for (m1, n1), c1 in _deriv(f.coeffs, a, b):
                c1 *= weight
                for (m2, n2), c2 in dg:
                    key = (m1 + m2, n1 + n2)
                    out[key] = out.get(key, 0j) + c1 * c2
    return MoyalPolynomial(out, f.theta, f.cap,
                           approximate=f.approximate or g.approximate)


def star_product(f: MoyalPolynomial, g: MoyalPolynomial) -> MoyalPolynomial:
    """Star product, the ring's ``*``.

    Exact operands give an exact product and raise DegreeOverflowError past
    the cap; an approximate operand makes the product truncate at the cap.
    """
    f._require_same_ring(g)
    return _star(f, g, truncate=f.approximate or g.approximate)


def star_commutator(f: MoyalPolynomial, g: MoyalPolynomial) -> MoyalPolynomial:
    """star_product(f, g) - star_product(g, f)."""
    return star_product(f, g) - star_product(g, f)
