"""Dense complex ring backends: scalars (d = 1) and d x d matrices.

Every formula in this package is written against the small ``RingElement``
interface, so the same matrix builders and residual checks run unchanged
over complex numbers, matrix rings, and the star-product polynomials of
:mod:`ncpain.moyal`.  ``a - b`` goes through ``_sub``, which defaults to
``a + (-b)``; ``MatrixElement`` overrides it with one array subtraction.
RK4's stage combinations go through two more such hooks:
``y._add_scaled(c, k)`` is ``y + c*k`` and ``y._rk4_update(c, k1, k2, k3,
k4)`` is ``y + c*(k1 + 2*k2 + 2*k3 + k4)``.  Their defaults chain ``_add``
and ``_scale``; ``MatrixElement`` overrides each with one array expression
of the same numpy operations, so results agree bit for bit.
Elements are immutable values, safe to share across threads: an arithmetic
result owns a fresh read-only array, and ``eye``/``one_like`` and
``zeros``/``zero_like`` hand out one shared identity and zero per size.

A ``MatrixElement`` may carry a leading batch axis, data of shape (n, d, d),
one position per grid point or spectral parameter: each operation acts on
every position and broadcasts plain (d, d) operands, so one evaluation of a
formula covers a whole grid.  A refused batch inverse lists every failing
position in ``NearSingularError.indices``.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

# Relative conditioning floor: inverses are refused below smin/smax = 1e-12.
COND_FLOOR = 1e-12

_SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class DimensionMismatchError(ValueError):
    """Operands belong to different rings (size or deformation mismatch)."""


class NearSingularError(ArithmeticError):
    """Inverse refused because the operand is too ill-conditioned.

    ``condition`` carries the estimated condition number (``inf`` for an
    exactly singular operand); for a batched operand it is that of the
    first refused position.  ``where`` names the pivot block or grid point
    that failed when the error is raised by a composite computation.
    ``indices`` is the sorted tuple of every refused batch position (the
    grid points to mask), or None when the operand was not batched.
    """

    def __init__(self, message: str, condition: float | None = None,
                 where: str | None = None, indices: tuple | None = None):
        if where is not None:
            message = f"{message} [{where}]"
        super().__init__(message)
        self.condition = condition
        self.where = where
        self.indices = indices

    def relabel(self, where: str) -> "NearSingularError":
        """The same refusal, with ``where`` appended to its message."""
        return NearSingularError(str(self), condition=self.condition,
                                 where=where, indices=self.indices)


class RingElement(abc.ABC):
    """A value in an associative unital ring with a partial inverse.

    Python scalars act as central elements: ``2 * a``, ``a * 2j`` and
    ``a + 3`` (read as ``a + 3 * a.one_like()``) are all defined.
    """

    __slots__ = ()

    @abc.abstractmethod
    def _add(self, other: "RingElement") -> "RingElement": ...

    @abc.abstractmethod
    def _mul(self, other: "RingElement") -> "RingElement": ...

    def _sub(self, other: "RingElement") -> "RingElement":
        return self._add(-other)

    def _add_scaled(self, c: complex, other: "RingElement") -> "RingElement":
        """self + c*other."""
        return self._add(other._scale(c))

    def _rk4_update(self, c: complex, k1: "RingElement", k2: "RingElement",
                    k3: "RingElement", k4: "RingElement") -> "RingElement":
        """self + c*(k1 + 2*k2 + 2*k3 + k4)."""
        two = 2 + 0j  # complex(2), as 2 * k computes it
        return self._add_scaled(
            c, k1._add_scaled(two, k2)._add_scaled(two, k3)._add(k4))

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

    @abc.abstractmethod
    def singular_extremes(self) -> tuple[float, float]:
        """(smallest, largest) singular-value estimates, for monitors."""

    # Each binary operator tests for its own class before the slower ABC
    # isinstance: in a flow step nearly every operand is one.
    def __add__(self, other):
        if other.__class__ is self.__class__ or isinstance(other, RingElement):
            return self._add(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._add(self.one_like()._scale(complex(other)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is self.__class__ or isinstance(other, RingElement):
            return self._sub(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._add(self.one_like()._scale(-complex(other)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.one_like()._scale(complex(other))._sub(self)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is self.__class__ or isinstance(other, RingElement):
            return self._mul(other)
        if isinstance(other, _SCALAR_TYPES):
            return self._scale(complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._scale(complex(other))
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)) or exponent < 0:
            return NotImplemented
        out = self.one_like()
        for _ in range(int(exponent)):
            out = out._mul(self)
        return out


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
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
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

    # The hot binary operations check the ring only when the operand is not
    # plainly a MatrixElement of the same size, and build their result as
    # _wrap does, without its call.
    def _add(self, other):
        if other.__class__ is not MatrixElement \
                or other.data.shape[-1] != self.data.shape[-1]:
            self._require_same_ring(other)
        arr = self.data + other.data
        arr.setflags(write=False)
        el = _new(MatrixElement)
        el.data = arr
        return el

    def _sub(self, other):
        if other.__class__ is not MatrixElement \
                or other.data.shape[-1] != self.data.shape[-1]:
            self._require_same_ring(other)
        arr = self.data - other.data
        arr.setflags(write=False)
        el = _new(MatrixElement)
        el.data = arr
        return el

    def _mul(self, other):
        if other.__class__ is not MatrixElement \
                or other.data.shape[-1] != self.data.shape[-1]:
            self._require_same_ring(other)
        arr = self.data @ other.data
        arr.setflags(write=False)
        el = _new(MatrixElement)
        el.data = arr
        return el

    def _add_scaled(self, c, other):
        if other.__class__ is not MatrixElement \
                or other.data.shape[-1] != self.data.shape[-1]:
            self._require_same_ring(other)
        arr = self.data + c * other.data
        arr.setflags(write=False)
        el = _new(MatrixElement)
        el.data = arr
        return el

    def _rk4_update(self, c, k1, k2, k3, k4):
        d = self.data.shape[-1]
        for k in (k1, k2, k3, k4):
            if k.__class__ is not MatrixElement or k.data.shape[-1] != d:
                self._require_same_ring(k)
        two = 2 + 0j  # complex(2), as 2 * k computes it
        arr = self.data + c * (k1.data + two * k2.data + two * k3.data
                               + k4.data)
        arr.setflags(write=False)
        el = _new(MatrixElement)
        el.data = arr
        return el

    def _scale(self, scalar):
        return _wrap(scalar * self.data)

    def __neg__(self):
        return _wrap(-self.data)

    def inv(self):
        smin, smax = self.singular_extremes()
        if smin <= COND_FLOOR * smax or smax == 0.0:
            raise self._refusal()
        return _wrap(np.linalg.inv(self.data))

    def _refusal(self) -> NearSingularError:
        smin, smax = self.point_extremes()
        bad = np.flatnonzero((smin <= COND_FLOOR * smax) | (smax == 0.0))
        low, high = float(smin.flat[bad[0]]), float(smax.flat[bad[0]])
        cond = float("inf") if low == 0.0 else high / low
        return NearSingularError(
            f"matrix is near-singular (condition ~ {cond:.3e})",
            condition=cond,
            indices=tuple(bad.tolist()) if self.data.ndim == 3 else None)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def point_norms(self) -> np.ndarray:
        """Frobenius norm of each batch position, as ``norm`` computes it."""
        flat = self.data.reshape(*self.data.shape[:-2], -1)
        return np.sqrt(np.vecdot(flat.real, flat.real)
                       + np.vecdot(flat.imag, flat.imag))

    def one_like(self):
        return MatrixElement.eye(self.data.shape[-1])

    def zero_like(self):
        return MatrixElement.zeros(self.data.shape[-1])

    def point_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(smallest, largest) singular value of each batch position, from
        one batched SVD; a position with a non-finite entry reads (0, inf)."""
        finite = np.isfinite(self.data).all(axis=(-2, -1))
        if finite.all():
            s = np.linalg.svd(self.data, compute_uv=False)
            return s[..., -1], s[..., 0]
        s = np.linalg.svd(np.where(finite[..., None, None], self.data, 0.0),
                          compute_uv=False)
        return (np.where(finite, s[..., -1], 0.0),
                np.where(finite, s[..., 0], np.inf))

    def singular_extremes(self):
        """(smallest, largest) singular value; for a batch, those of the
        position with the smallest ratio smallest / largest."""
        smin, smax = self.point_extremes()
        if smin.ndim:
            margin = np.divide(smin, smax, out=np.zeros_like(smin),
                               where=smax > 0)
            k = int(np.argmin(margin))
            smin, smax = smin[k], smax[k]
        return float(smin), float(smax)

    def condition(self) -> float:
        smin, smax = self.singular_extremes()
        if smin == 0.0:
            return float("inf")
        return smax / smin

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        self._require_same_ring(other)
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    def __repr__(self):
        if self.data.shape == (1, 1):
            return f"MatrixElement.scalar({self.data[0, 0]})"
        return f"MatrixElement({self.data.tolist()})"


_new = object.__new__


def _wrap(arr: np.ndarray) -> MatrixElement:
    """The private constructor of ring results (the hot binary operations
    inline it): ``arr`` is a complex array of shape (d, d) or (n, d, d)
    that was just computed and that nothing else references, so it is
    frozen in place, without a copy or a check."""
    el = _new(MatrixElement)
    arr.setflags(write=False)
    el.data = arr
    return el


def commutator(a: RingElement, b: RingElement) -> RingElement:
    """a*b - b*a."""
    return a * b - b * a


def anticommutator(a: RingElement, b: RingElement) -> RingElement:
    """a*b + b*a."""
    return a * b + b * a


def random_matrix(rng: np.random.Generator, d: int,
                  scale: float = 1.0) -> MatrixElement:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return MatrixElement(scale * z)


def random_invertible(rng: np.random.Generator, d: int, scale: float = 1.0,
                      max_condition: float = 1e4) -> MatrixElement:
    """Gaussian matrix, resampled until its condition number is moderate."""
    while True:
        m = random_matrix(rng, d, scale)
        if m.condition() <= max_condition:
            return m
