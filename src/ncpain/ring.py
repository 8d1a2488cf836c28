"""Dense complex ring backends: scalars (d = 1) and d x d matrices.

Every formula in this package is written against the small ``RingElement``
interface, so the same matrix builders and residual checks run unchanged
over complex numbers, matrix rings, and the star-product polynomials of
:mod:`ncpain.moyal`.  ``a - b`` goes through ``_sub``, which defaults to
``a + (-b)``; ``MatrixElement`` overrides it with one array subtraction.
Each ``MatrixElement`` operation is one numpy operation on ``.data``, but
the product: ``_product`` sums it over k, one elementwise product of
column k and row k per k, for d <= UNROLL_MAX_D, and calls ``@`` above.
``@`` is the ring product, so a formula spelled with ``+ - scalar* @``
runs unchanged on bare arrays and on stacks of them, as the RK4 flows run;
for d <= UNROLL_MAX_D its values on arrays, where ``@`` is numpy's matmul,
agree with those on elements to rounding, not to the bit.
Elements are immutable values, safe to share across threads: an arithmetic
result owns a fresh read-only array (a flow path's fields are read-only
views of one such array), and ``eye``/``one_like`` and
``zeros``/``zero_like`` hand out one shared identity and zero per size.

A ``MatrixElement`` may carry a leading batch axis, data of shape (n, d, d),
one position per grid point or spectral parameter: each operation acts on
every position and broadcasts plain (d, d) operands, so one evaluation of a
formula covers a whole grid.  A refused batch inverse lists every failing
position in ``NearSingularError.indices``.  ``inverse(x, where)`` is the
one place a refused pivot of a composite computation gets its label: it
re-raises the refusal with `` [where]`` appended (``dressing`` adds the
refused grid point itself).

``inv`` refuses a position when smin/smax <= COND_FLOOR.  It computes the
inverse first: since smin >= 1/|A^-1|_F and smax <= |A|_F, the two norms
certify every position whose condition number is at most about 1e6, and
one batched SVD of the positions left over both decides and describes a
refusal: its singular values give the refused positions and the condition
number reported.  A position it accepts is refused all the same when
LAPACK cannot invert it or its inverse is not finite, as with subnormal
entries.  A position with a non-finite entry is refused as not finite.
Norms of entries past 2**500 are summed from entries scaled by a power of
two, so a norm overflows only past the float range; ``row_norms`` does it,
for ``MatrixElement`` and for ``quasidet.BlockMatrix``, whose norms sum the
squares of its entries' norms.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

# Relative conditioning floor: inverses are refused below smin/smax = 1e-12.
COND_FLOOR = 1e-12
# A norm is summed from scaled entries once an entry exceeds _HUGE, where
# squares may overflow.
_HUGE = 2.0 ** 500
# Products of d x d elements with d <= UNROLL_MAX_D are summed over k
# elementwise; larger ones go to ``@``.  Best of 5 x 200 on (1001, d, d)
# complex data, three runs (2 cores, numpy 2.4.6): the sum took 1.6-2.9,
# 52-88 and 122-192 us at d = 1, 2, 3 against 4.7-10, 252-381 and 277-447
# for ``@``; 235-357 against 273-448 at d = 4, which no workload runs;
# 1112-1149 and 2516-2642 against 303-309 and 371-376 at d = 6 and 8.  An
# unbatched 3x3 sum takes 4.7-4.9 us against 1.4-1.8.
UNROLL_MAX_D = 3

_SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class DimensionMismatchError(ValueError):
    """Operands belong to different rings (size or deformation mismatch)."""


class NearSingularError(ArithmeticError):
    """Inverse refused because the operand is too ill-conditioned.

    ``condition`` carries the estimated condition number (``inf`` for an
    exactly singular operand); for a batched operand it is that of the
    first refused position.  ``indices`` is the sorted tuple of every
    refused batch position (the grid points to mask), or None when the
    operand was not batched.  ``inverse`` names a refused pivot with
    ``relabel``.
    """

    def __init__(self, message: str, condition: float | None = None,
                 indices: tuple | None = None):
        super().__init__(message)
        self.condition = condition
        self.indices = indices

    def relabel(self, where: str) -> "NearSingularError":
        """The same refusal, with `` [where]`` appended to its message."""
        return NearSingularError(f"{self} [{where}]", self.condition,
                                 self.indices)


class RingElement(abc.ABC):
    """A value in an associative unital ring with a partial inverse.

    Python scalars act as central elements: ``2 * a``, ``a * 2j`` and
    ``a + 3`` (read as ``a + 3 * a.one_like()``) are all defined.  ``a @ b``
    is the ring product ``a * b``, for ring operands only.  A numpy array
    is not an operand: arithmetic between an array and an element raises
    TypeError rather than building an object array.
    """

    __slots__ = ()
    __array_ufunc__ = None

    @abc.abstractmethod
    def _add(self, other: "RingElement") -> "RingElement": ...

    @abc.abstractmethod
    def _mul(self, other: "RingElement") -> "RingElement": ...

    def _sub(self, other: "RingElement") -> "RingElement":
        return self._add(-other)

    @abc.abstractmethod
    def _scale(self, scalar: complex) -> "RingElement": ...

    @abc.abstractmethod
    def __neg__(self) -> "RingElement": ...

    @abc.abstractmethod
    def inv(self) -> "RingElement":
        """Two-sided ring inverse; raises NearSingularError when refused."""

    @abc.abstractmethod
    def norm(self) -> float: ...

    @abc.abstractmethod
    def one_like(self) -> "RingElement": ...

    @abc.abstractmethod
    def zero_like(self) -> "RingElement": ...

    @abc.abstractmethod
    def allclose(self, other: "RingElement", rtol: float = 1e-9,
                 atol: float = 1e-12) -> bool: ...

    def __add__(self, other):
        if isinstance(other, RingElement):
            return self._add(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._add(self.one_like()._scale(complex(other)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RingElement):
            return self._sub(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._add(self.one_like()._scale(-complex(other)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.one_like()._scale(complex(other))._sub(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self._mul(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._scale(complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._scale(complex(other))
        return NotImplemented

    def __matmul__(self, other):
        if isinstance(other, RingElement):
            return self._mul(other)
        return NotImplemented


class MatrixElement(RingElement):
    """Complex d x d matrix, or a batch of them; d = 1 is the scalar backend.

    ``data`` has shape (d, d), or (n, d, d) for a batch of n matrices that
    every operation treats position by position; ``one_like``/``zero_like``
    are unbatched and broadcast.  ``norm`` covers all of ``data``,
    ``point_norms`` gives one Frobenius norm per batch position.  The
    constructor copies ``data``, so the caller's array stays writable and a
    view into a batch does not keep the batch alive; ring results wrap the
    array they computed without a copy.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128)
        if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
            raise DimensionMismatchError(
                f"expected (d, d) or (n, d, d) data, got shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr

    @property
    def d(self) -> int:
        return self.data.shape[-1]

    # One shared identity and zero per size: elements are immutable.
    @classmethod
    @functools.cache
    def eye(cls, d: int) -> "MatrixElement":
        return cls(np.eye(d))

    @classmethod
    @functools.cache
    def zeros(cls, d: int) -> "MatrixElement":
        return cls(np.zeros((d, d)))

    @classmethod
    def scalar(cls, value: complex) -> "MatrixElement":
        return cls(np.array([[value]]))

    @classmethod
    def scalars(cls, values, d: int) -> "MatrixElement":
        """Batch of central elements: values[k] times the d x d identity."""
        return cls(np.asarray(values, complex)[:, None, None] * np.eye(d))

    def _require_same_ring(self, other):
        if other.__class__ is not MatrixElement:
            raise DimensionMismatchError(
                f"cannot combine MatrixElement with {type(other).__name__}")
        if other.data.shape[-1] != self.data.shape[-1]:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.d} vs {other.d}")

    def _add(self, other):
        self._require_same_ring(other)
        return _wrap(self.data + other.data)

    def _sub(self, other):
        self._require_same_ring(other)
        return _wrap(self.data - other.data)

    def _mul(self, other):
        self._require_same_ring(other)
        return _wrap(_product(self.data, other.data))

    def _scale(self, scalar):
        return _wrap(scalar * self.data)

    def __neg__(self):
        return _wrap(-self.data)

    def inv(self):
        inverse, certified = _certified_inverse(self.data, COND_FLOOR)
        if not certified.all():
            # One SVD of the positions the certificate left open decides
            # them and describes a refusal: near-singular first (or not
            # finite, which the SVD reads as singular), then, for positions
            # it accepts, an inverse that LAPACK cannot compute or that is
            # not finite (subnormal data).
            rest = np.flatnonzero(~certified)
            left = self.data.reshape(-1, self.d, self.d)[rest]
            smin, smax = MatrixElement(left).point_extremes()
            what = "matrix is near-singular"
            bad = (smin <= COND_FLOOR * smax) | (smax == 0.0)
            if not bad.any():
                if inverse is None:  # LAPACK finds some position singular
                    inverse = _inverse_by_position(self.data)
                what = "matrix inverse is not finite"
                bad = ~np.isfinite(inverse.reshape(-1, self.d, self.d)[rest]
                                   ).all(axis=(-2, -1))
            if bad.any():
                bad = np.flatnonzero(bad)
                low, high = float(smin[bad[0]]), float(smax[bad[0]])
                cond = float("inf") if low == 0.0 else high / low
                what = f"{what} (condition ~ {cond:.3e})"
                if not np.isfinite(left[bad[0]]).all():
                    what = "matrix is not finite"
                raise NearSingularError(
                    what, condition=cond,
                    indices=tuple(rest[bad].tolist())
                    if self.data.ndim == 3 else None)
        return _wrap(inverse)

    def norm(self) -> float:
        return float(row_norms(self.data.reshape(1, -1))[0])

    def point_norms(self) -> np.ndarray:
        """Frobenius norm of each batch position, as ``norm`` computes it."""
        return row_norms(self.data.reshape(*self.data.shape[:-2], -1))

    def one_like(self):
        return MatrixElement.eye(self.data.shape[-1])

    def zero_like(self):
        return MatrixElement.zeros(self.data.shape[-1])

    def point_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(smallest, largest) singular value of each batch position, from
        one batched SVD; a position with a non-finite entry reads (0, inf)."""
        finite = np.isfinite(self.data).all(axis=(-2, -1))
        s = np.linalg.svd(np.where(finite[..., None, None], self.data, 0.0),
                          compute_uv=False)
        return (np.where(finite, s[..., -1], 0.0),
                np.where(finite, s[..., 0], np.inf))

    def singular_extremes(self) -> tuple[float, float]:
        """(smallest, largest) singular value of an unbatched matrix."""
        if self.data.ndim != 2:  # some numpy versions float a 1-position batch
            raise TypeError("singular_extremes takes an unbatched matrix")
        return tuple(map(float, self.point_extremes()))

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        self._require_same_ring(other)
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    def __repr__(self):
        if self.data.shape == (1, 1):
            return f"MatrixElement.scalar({self.data[0, 0]})"
        return f"MatrixElement({self.data.tolist()})"


def _wrap(arr: np.ndarray) -> MatrixElement:
    """The private constructor of ring results: ``arr`` is a fresh complex
    array of shape (d, d) or (n, d, d), or a view of one, that nothing else
    writes, so it is frozen in place, without a copy or a check."""
    el = object.__new__(MatrixElement)
    arr.setflags(write=False)
    el.data = arr
    return el


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of ``a`` and ``b``, (d, d) or (n, d, d) each.

    For d <= UNROLL_MAX_D it is summed as a[:, k] b[k, :] over k, one
    broadcast elementwise product per k, from the k = 0 term (not from 0,
    so signs of zero survive).  The same formula serves batched and
    unbatched operands, so each position of a batched product has the
    bits of the unbatched product of its operands.  Its bits are numpy's
    elementwise complex arithmetic, which may differ between CPUs that
    dispatch to different SIMD code.
    """
    d = a.shape[-1]
    if d > UNROLL_MAX_D:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, d):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def row_norms(flat: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``flat``, real or complex.

    Summed over the strided real and imaginary views, as numpy's own norm
    sums a complex array, so a norm keeps its bits.  Each row whose largest
    modulus exceeds _HUGE is summed again from the row times an exact power
    of two, which is divided back out: such a norm is inf only when it is
    past the float range.  Other rows keep their bits.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(flat.real, flat.real)
                        + np.vecdot(flat.imag, flat.imag))
    rows = np.flatnonzero(norms > _HUGE)
    if not rows.size:
        return norms
    x = flat.reshape(-1, flat.shape[-1])[rows]
    peak = np.abs(x).max(axis=-1)
    huge = (peak > _HUGE) & (peak < np.inf)
    exp = np.frexp(peak[huge])[1]
    out = np.array(norms)
    out.flat[rows[huge]] = np.ldexp(
        row_norms(x[huge] * np.ldexp(1.0, -exp)[:, None]), exp)
    return out[()]


def _squared_norms(data: np.ndarray) -> np.ndarray:
    """|A|_F^2 of each batch position, unscaled: inf past about 1e154."""
    # Not row_norms: an underflow here must meet an overflow that certifies
    # nothing, or 1e-170 * diag(1, 1e-14), condition 1e14, would pass.
    flat = data.reshape(*data.shape[:-2], -1)
    return np.vecdot(flat, flat).real


def _certified_inverse(data: np.ndarray, floor: float,
                       saturate: bool = False):
    """``np.linalg.inv(data)`` (None where it raised) and the mask of batch
    positions that its norms prove to be conditioned well past ``floor``.

    For an invertible A, smin >= 1/|A^-1|_F and smax <= |A|_F, so
    1/(|A|_F |A^-1|_F) bounds smin/smax from below; with ``saturate`` the
    bound is 1/(|A^-1|_F max(|A|_F, 1)), of smin/max(smax, 1).  A position
    is certified when its bound is at least max(2 floor, 1e-6).  A bound
    of 1e-6 caps the condition number near 1e6, so the computed inverse,
    and with it the bound, is off by far less than the factor 2; the SVD
    test would pass the position too.  A squared norm that overflows
    certifies nothing.  One that underflows needs no guard: since
    |A|_F |A^-1|_F >= d, the other is then near 2**1000 or more, and if it
    is finite the condition number is below 2**12.  Only uncertified
    positions need the SVD to decide them.
    """
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(data)
        except np.linalg.LinAlgError:
            return None, np.zeros(data.shape[:-2], dtype=bool)
        a2, b2 = _squared_norms(data), _squared_norms(inverse)
        if saturate:
            a2 = np.maximum(a2, 1.0)
        certified = a2 * b2 <= max(2.0 * floor, 1e-6) ** -2
    return inverse, certified


def _inverse_by_position(data: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` of each batch position alone; NaN fills each
    position where LAPACK finds it singular."""
    flat = data.reshape(-1, *data.shape[-2:])
    out = np.full(flat.shape, np.nan, dtype=complex)
    with np.errstate(all="ignore"):
        for k, a in enumerate(flat):
            try:
                out[k] = np.linalg.inv(a)
            except np.linalg.LinAlgError:
                pass
    return out.reshape(data.shape)


def inverse(x, where: str):
    """``x.inv()`` of a RingElement or BlockMatrix; a refusal is re-raised
    as ``relabel(where)``, chained to the original."""
    try:
        return x.inv()
    except NearSingularError as exc:
        raise exc.relabel(where) from exc


def commutator(a: RingElement, b: RingElement) -> RingElement:
    """a*b - b*a."""
    return a * b - b * a


def anticommutator(a, b):
    """a*b + b*a, spelled with ``@``, so it runs on bare arrays too."""
    return a @ b + b @ a


def random_matrix(rng: np.random.Generator, d: int,
                  scale: float = 1.0) -> MatrixElement:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return MatrixElement(scale * z)


def random_invertible(rng: np.random.Generator, d: int, scale: float = 1.0,
                      max_condition: float = 1e4) -> MatrixElement:
    """Gaussian matrix, resampled until its condition number is moderate."""
    while True:
        m = random_matrix(rng, d, scale)
        smin, smax = m.singular_extremes()
        if smin > 0.0 and smax / smin <= max_condition:
            return m
