"""Uniformly sampled matrix-valued functions of a real variable."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ring import MatrixElement

# A centred second-difference needs interior points on both sides.
MIN_STENCIL_LENGTH = 5


@dataclass(frozen=True)
class GridFunction:
    """Values of a matrix-valued function on z0 + k*h, k = 0..len-1.

    The values live in one batched MatrixElement, ``batch``, whose data has
    shape (len, d, d), so a ring formula applied to ``batch`` is evaluated
    at every grid point at once.  The constructor also takes a sequence of
    per-point (d, d) elements and stacks it.  ``grid[k]`` is the element at
    point k, ``grid[a:b]`` (or an index array) the batched element of those
    points, and iterating a grid yields its per-point elements.
    """

    z0: float
    h: float
    batch: MatrixElement

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid step must be positive")
        if not isinstance(self.batch, MatrixElement):
            object.__setattr__(self, "batch",
                               MatrixElement([v.data for v in self.batch]))
        if self.batch.data.ndim != 3 or not len(self.batch.data):
            raise ValueError("grid needs a non-empty batch of values")

    @classmethod
    def sample(cls, fn: Callable[[float], MatrixElement], z0: float, h: float,
               n: int) -> "GridFunction":
        return cls(z0, h, tuple(fn(z0 + k * h) for k in range(n)))

    def __len__(self) -> int:
        return len(self.batch.data)

    def __getitem__(self, k) -> MatrixElement:
        return MatrixElement(self.batch.data[k])

    def z(self, k: int) -> float:
        return self.z0 + k * self.h

    def zs(self) -> np.ndarray:
        return self.z0 + self.h * np.arange(len(self))

    def same_grid(self, other: "GridFunction") -> bool:
        return (len(self) == len(other)
                and abs(self.z0 - other.z0) < 1e-12
                and abs(self.h - other.h) < 1e-15)

    def sup_norm(self, mask: Sequence[bool] | None = None) -> float:
        norms = self._masked_norms(mask)
        return float(norms.max()) if norms.size else float("nan")

    def mean_norm(self, mask: Sequence[bool] | None = None) -> float:
        norms = self._masked_norms(mask)
        # Sequential sum in grid order: the bits of a per-point loop.
        return sum(norms.tolist()) / norms.size if norms.size \
            else float("nan")

    def _masked_norms(self, mask) -> np.ndarray:
        norms = self.batch.point_norms()
        return norms if mask is None else norms[np.asarray(mask, dtype=bool)]

    def allclose(self, other: "GridFunction", rtol=1e-9, atol=1e-12) -> bool:
        if not self.same_grid(other):
            return False
        return self.batch.allclose(other.batch, rtol=rtol, atol=atol)


def require_stencil_length(f: GridFunction):
    if len(f) < MIN_STENCIL_LENGTH:
        raise ValueError(
            f"grid too short: {len(f)} points, need {MIN_STENCIL_LENGTH}")
