"""Quasideterminants and block inversion over any RingElement backend.

Index convention: the quasideterminant at position (i, j) is the ring
inverse of entry (j, i) of the full matrix inverse.  This is the unique
convention consistent with the 2x2 expansion

    qd(A, 0, 0) = a00 - a01 * a11^-1 * a10,

and it is what both the elimination and the inversion-based oracle
below implement.  All indices in this module are 0-based.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .ring import MatrixElement, RingElement, inverse, row_norms


class BlockMatrix:
    """Rectangular array of RingElements drawn from one ring."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("BlockMatrix needs at least one entry")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows in BlockMatrix")
            for e in row:
                if not isinstance(e, RingElement):
                    raise TypeError(
                        f"entries must be RingElements, got {type(e).__name__}")
        self.entries = rows

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.n == self.m

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def _entrywise(self, other, op):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return BlockMatrix([[op(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other):
        return self._entrywise(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._entrywise(other, lambda a, b: a - b)

    def __neg__(self):
        return BlockMatrix([[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        if self.m != other.n:
            raise ValueError(f"shape mismatch: {self.n}x{self.m} "
                             f"@ {other.n}x{other.m}")
        # Each entry sums its products left to right.
        return BlockMatrix([[functools.reduce(operator.add, map(
            operator.mul, row, col)) for col in zip(*other.entries)]
            for row in self.entries])

    def _require_same_shape(self, other):
        if self.n != other.n or self.m != other.m:
            raise ValueError(f"shape mismatch: {self.n}x{self.m} "
                             f"vs {other.n}x{other.m}")

    def identity_like(self) -> "BlockMatrix":
        if not self.is_square:
            raise ValueError("identity_like needs a square BlockMatrix")
        template = self.entries[0][0]
        return BlockMatrix([[template.one_like() if i == j
                             else template.zero_like()
                             for j in range(self.m)] for i in range(self.n)])

    def _block(self, r0, r1, c0, c1) -> "BlockMatrix":
        return BlockMatrix([row[c0:c1] for row in self.entries[r0:r1]])

    def norm(self) -> float:
        return float(row_norms(np.array([e.norm() for row in self.entries
                                         for e in row])))

    def point_norms(self) -> np.ndarray:
        """``norm()`` of each batch position of MatrixElement entries, bit
        for bit.  Unbatched entries broadcast."""
        norms = np.broadcast_arrays(*(np.atleast_1d(e.point_norms())
                                      for row in self.entries for e in row))
        return row_norms(np.stack(norms, axis=-1))

    def inv(self) -> "BlockMatrix":
        return block_inverse(self)

    def allclose(self, other, rtol=1e-9, atol=1e-12) -> bool:
        self._require_same_shape(other)
        return all(a.allclose(b, rtol=rtol, atol=atol)
                   for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __repr__(self):
        return f"BlockMatrix({self.n}x{self.m})"


def _stack(tl: BlockMatrix, tr: BlockMatrix,
           bl: BlockMatrix, br: BlockMatrix) -> BlockMatrix:
    top = [list(a) + list(b) for a, b in zip(tl.entries, tr.entries)]
    bottom = [list(a) + list(b) for a, b in zip(bl.entries, br.entries)]
    return BlockMatrix(top + bottom)


def block_inverse(a: BlockMatrix) -> BlockMatrix:
    """Inverse by recursive 2x2 block decomposition, split at ceil(n/2).

    With T = S - R P^-1 Q, the Schur complement of the leading block P,

        [[P, Q], [R, S]]^-1 =
        [[ P^-1 + P^-1 Q T^-1 R P^-1,  -P^-1 Q T^-1 ],
         [ -T^-1 R P^-1,                T^-1        ]]

    which is exact over any associative ring.  Each split inverts only P
    and T, so an n x n matrix costs exactly n entry inverses.  The matrix
    is refused when P or T is near-singular (at any level of the
    recursion); the NearSingularError is re-raised naming that block.
    """
    if not a.is_square:
        raise ValueError("block_inverse needs a square BlockMatrix")
    n = a.n
    if n == 1:
        return BlockMatrix([[a.entry(0, 0).inv()]])
    k = (n + 1) // 2
    p = a._block(0, k, 0, k)
    q = a._block(0, k, k, n)
    r = a._block(k, n, 0, k)
    s = a._block(k, n, k, n)
    p_inv = inverse(p, "leading diagonal block")
    p_inv_q = p_inv @ q
    t_inv = inverse(s - r @ p_inv_q, "Schur complement of leading block")
    lower_left = -(t_inv @ (r @ p_inv))
    return _stack(p_inv - p_inv_q @ lower_left,
                  -(p_inv_q @ t_inv),
                  lower_left,
                  t_inv)


def quasideterminant(a: BlockMatrix, i: int, j: int) -> RingElement:
    """Quasideterminant at (i, j): a_ij - row_i * (A^ij)^-1 * col_j.

    ``row_i`` is row i with entry j removed, ``col_j`` is column j with
    entry i removed, and A^ij is the submatrix with row i and column j
    deleted.  Elimination with row i and column j last leaves it in the
    corner; its pivots, the leading principal Schur complements of A^ij,
    cost n - 1 entry inverses and (n^3 - n)/3 ring products in all.
    """
    if not a.is_square:
        raise ValueError("quasideterminant needs a square BlockMatrix")
    n = a.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"position ({i},{j}) outside {n}x{n} matrix")
    rows = [r for r in range(n) if r != i] + [i]
    cols = [c for c in range(n) if c != j] + [j]
    m = [[a.entry(r, c) for c in cols] for r in rows]
    while len(m) > 1:
        eliminate(m, inverse(m[0][0], f"submatrix for position ({i},{j})"))
    return m[0][0]


def eliminate(m: list, pivot_inv: RingElement) -> None:
    """One elimination step on the square array ``m``, a list of rows, in
    place: each entry becomes m_rc - (m_r0 pivot_inv) m_0c, with pivot_inv
    the inverse of m_00, and row 0 and column 0 are dropped."""
    top = m.pop(0)[1:]
    for row in m:
        left = row.pop(0) * pivot_inv
        row[:] = [x - left * y for x, y in zip(row, top)]


def quasideterminant_oracle(a: BlockMatrix, i: int, j: int) -> RingElement:
    """Independent evaluation: ring inverse of entry (j, i) of A^-1."""
    return inverse(block_inverse(a).entry(j, i), f"inverse entry ({j},{i})")


def determinant_ratio(a: BlockMatrix, i: int, j: int) -> complex:
    """Commutative limit (-1)^(i+j) det(A) / det(A^ij), unbatched d = 1; A^ij
    is refused as ``MatrixElement.inv`` refuses it, with the same label."""
    entries = [e for row in a.entries for e in row]
    if not all(isinstance(e, MatrixElement) and e.data.shape == (1, 1)
               for e in entries):
        raise ValueError("scalar backend (d = 1, unbatched) required")
    arr = np.array([e.data[0, 0] for e in entries]).reshape(a.n, a.m)
    sub = np.delete(np.delete(arr, i, axis=0), j, axis=1)
    det_sub = 1.0 + 0j
    if sub.size:
        inverse(MatrixElement(sub), f"submatrix for position ({i},{j})")
        det_sub = np.linalg.det(sub)
    return (-1) ** (i + j) * np.linalg.det(arr) / det_sub


def commutative_limit_residual(a: BlockMatrix, i: int, j: int) -> float:
    """|quasideterminant - determinant ratio| on the scalar backend."""
    value = quasideterminant(a, i, j)
    got = complex(value.data[0, 0])
    return abs(got - determinant_ratio(a, i, j))
