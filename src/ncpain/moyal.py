"""Star-product polynomials in two variables with deformation parameter theta.

The product is the full bidifferential series

    f * g = sum_(a,b) (i*theta/2)^(a+b) (-1)^b / (a! b!) *
            (d1^a d2^b f) (d2^a d1^b g)

which terminates on polynomials.  A product of exact operands is exact: it
is summed in dict arithmetic, term by term and within a term over f's
coefficients, then g's, in insertion order.  Terms that cancel cancel
exactly, so the basic coordinate relation x1*x2 - x2*x1 = i*theta holds to
the last bit and a theta = 0 product equals the plain polynomial product
summed in that order.

``inv`` is approximate: it sums a geometric series truncated at the degree
cap and is labelled as such in CLI reports.  A product that touches an
approximate operand is cropped to the cap: f * g is R_g @ vec(f), R_g the
matrix of right multiplication by g, and the series applies one R_u to
every term.  R_g adds each series term once, so a coefficient's rounding
is about eps times the sizes of the terms that meet in it.
"""

from __future__ import annotations

from functools import cache
from math import factorial, hypot, perm

import numpy as np

from .ring import (COND_FLOOR, DimensionMismatchError, NearSingularError,
                   RingElement)

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


def _dense(p: MoyalPolynomial, side: int) -> np.ndarray:
    """Coefficients as a square array a[m, n] of the given side."""
    a = np.zeros((side, side), dtype=complex)
    for (m, n), c in p.coeffs.items():
        a[m, n] = c
    return a


@cache
def _triangle(cap: int) -> tuple:
    """The cap triangle's monomials and the tables that shift them: ``m, n``
    list them m-major, x1^s keeps the monomials ``kept[s]`` inside the cap
    and maps them in order onto the last len(kept[s]) places, and
    ``falling[j, k]`` = j!/(j-k)! is the weight of d^k on x^j."""
    m, n = np.array([(m, n) for m in range(cap + 1)
                     for n in range(cap + 1 - m)]).T
    kept = [np.flatnonzero(m + n <= cap - s) for s in range(cap + 1)]
    falling = np.array([[perm(j, k) for k in range(cap + 1)]
                        for j in range(2 * cap + 1)], dtype=float)
    for table in (m, n, falling, *kept):
        table.flags.writeable = False
    return m, n, kept, falling


def _from_vector(v: np.ndarray, theta: float, cap: int) -> MoyalPolynomial:
    keys = zip(*(k.tolist() for k in _triangle(cap)[:2]))
    return MoyalPolynomial(dict(zip(keys, v.tolist())), theta, cap,
                           approximate=True)


def _shift_sum(stack: np.ndarray, c: complex, cap: int) -> np.ndarray:
    """out[(m, n)] = sum_s C(m, s) c^(m-s) x1^s stack[(m-s, n)], cropped.

    ``stack`` holds vectors for the first len(stack) monomials, the rest
    being zero.  x1^s moves a vector and its monomial alike, so each s is
    one gather and one add into a tail block."""
    m, _, kept, falling = _triangle(cap)
    out = np.zeros((len(m), len(m)), dtype=complex)
    for s, rows in enumerate(kept):
        cols = rows[rows < len(stack)]
        k, tail = m[cols], len(m) - len(rows)
        weights = falling[k + s, s] / factorial(s) * c ** k
        out[tail:tail + len(cols), tail:] += \
            weights[:, None] * stack[np.ix_(cols, rows)]
    return out


def _right_matrix(g: MoyalPolynomial) -> np.ndarray:
    """R with R @ vec(f) = vec(f * g), the product cropped to the cap.

    Column (m, n) is x1^m x2^n * g = sum_(a,b) C(m,a) C(n,b) (i theta/2)^a
    (-i theta/2)^b x1^(m-a) x2^(n-b) d2^a d1^b g, summed with no FFT as two
    shift sums: over b with x1 and x2 swapped, into x2^n * d2^a g for each
    (a, n), then over a.  Each term is added once, so a column is as
    accurate as the exact series.  R is T x T complex, T = (cap+1)(cap+2)/2,
    so it grows as cap^4: 375 KB at cap 16, 1.7 MB at cap 24, 24 MB at 48.
    """
    cap, half = g.cap, 0.5j * g.theta
    m, n, _, falling = _triangle(cap)
    # d1^k1 d2^k2 g vanishes once k1 or k2 passes g's degree in x1 or x2.
    top1, top2 = np.searchsorted(m, [max((key[i] for key in g.coeffs),
                                         default=0) for i in (0, 1)], "right")
    k1, k2 = m[:top1, None], n[:top1, None]
    dense = _dense(g, 2 * cap + 1)
    # Swapped: vector (k1, k2) holds d1^k1 d2^k2 g with x1 and x2 exchanged.
    stack = dense[n + k1, m + k2] * (falling[n + k1, k1] * falling[m + k2, k2])
    swap = np.lexsort((m, n))  # the place of (b, a) at the place of (a, b)
    stack = _shift_sum(stack, -half, cap)[np.ix_(swap[:top2], swap)]
    return _shift_sum(stack, half, cap).T


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
        series tail, and the result carries ``approximate=True``.  Each
        term is the last times one matrix, ``_right_matrix(u)``.  A
        non-finite coefficient is refused with NearSingularError.
        """
        if not np.isfinite(list(self.coeffs.values())).all():
            raise NearSingularError(
                "non-finite coefficient in the star-inverse input",
                condition=float("inf"))
        c0 = self.coefficient(0, 0)
        scale = max(self.norm(), 1e-300)
        if abs(c0) <= COND_FLOOR * scale:
            cond = float("inf") if c0 == 0 else scale / abs(c0)
            raise NearSingularError(
                "constant term too small for the star-inverse series",
                condition=cond)
        u = (self - c0) * (1.0 / c0)
        right = _right_matrix(u)
        total = term = np.eye(1, len(right), dtype=complex)[0]
        u_norm0 = max(u.norm(), 1.0)
        for _ in range(_INV_MAX_TERMS):
            term = -(right @ term)
            tn = np.linalg.norm(term)
            done = tn == 0.0 or tn <= 1e-16 * max(np.linalg.norm(total), 1.0)
            if not done and tn > _INV_DIVERGENCE_FACTOR * u_norm0:
                raise NearSingularError(
                    "star-inverse geometric series diverges",
                    condition=scale / abs(c0))
            total = total + term
            if done:
                break
        if not done and tn > 1e-8 * max(np.linalg.norm(total), 1.0):
            raise NearSingularError(
                "star-inverse series did not converge "
                f"within {_INV_MAX_TERMS} terms", condition=scale / abs(c0))
        return _from_vector(total, self.theta, self.cap) * (1.0 / c0)

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

    Exact products take their term weights from :func:`_weights` and add
    them up in dict arithmetic and dict order, so terms that cancel cancel
    exactly (numpy's vectorised complex products round differently).
    Truncated ones are ``_right_matrix(g) @ vec(f)``.  The caller,
    ``star_product``, has checked that f and g share a ring.
    """
    if truncate:
        vec = _dense(f, f.cap + 1)[_triangle(f.cap)[:2]]
        return _from_vector(_right_matrix(g) @ vec, f.theta, f.cap)
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

