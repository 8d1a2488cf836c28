"""Both Lax representations of noncommutative Painleve II and their checks.

The spectral representation pairs a 2x2 matrix A (quadratic in the spectral
parameter lambda) with the 2x2 matrix B of the z-equation; the curvature
combination A_z - B_lambda - [B, A] then vanishes exactly when

    v_zz = 2 v^3 - 2 [z, v]_+ + C                                 (P-II)

holds, with the equation residual sitting in the off-diagonal entries.
The second representation is a 6x6 block-diagonal pair (L, P) whose Lax
equation L_t = [P, L] encodes the symmetric three-field flow

    v0' = v2 v0 + v0 v2 + alpha0
    v1' = -(v2 v1 + v1 v2) + alpha1
    v2' = v1 - v0

which conserves v0 + v1 + v2^2 - (alpha0 + alpha1) t and collapses onto
P-II for v2 once that first integral is set to zero and alpha0 + alpha1 = 2
(then C = alpha1 - alpha0 and z is the flow time).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, require_stencil_length
from .integrators import rk4_path
from .quasidet import BlockMatrix
from .ring import (COND_FLOOR, MatrixElement, RingElement, _certified_inverse,
                   _squared_norms, _wrap, anticommutator, inverse)

NORMALIZED_ALPHA_SUM = 2.0
# pii_residual_grid works in blocks of this many points to bound its memory.
STENCIL_BLOCK = 512


@dataclass(frozen=True)
class PiiState:
    """Field value and derivatives entering the spectral Lax pair; with
    batched v, v_z, v_zz, z and C may each hold one number per position."""

    v: RingElement
    v_z: RingElement
    v_zz: RingElement
    z: complex
    lam: complex
    C: complex


@dataclass(frozen=True)
class SymState:
    """One point of the symmetric three-field flow, or a batch of them:
    batched fields, with ``t`` one number per position."""

    v0: RingElement
    v1: RingElement
    v2: RingElement
    alpha0: complex
    alpha1: complex
    t: float = 0.0

    def at(self, k) -> "SymState":
        """Position ``k`` of a batched MatrixElement state as one state of
        views; a slice or an index array gives a batch."""
        fields = (_wrap(f.data[k]) for f in (self.v0, self.v1, self.v2))
        t = self.t[k]
        return SymState(*fields, self.alpha0, self.alpha1,
                        t if np.ndim(t) else float(t))


@dataclass(frozen=True)
class FlowResult:
    """A trajectory of ``integrate_symmetric``.

    ``path`` is the whole trajectory as one batched SymState: its v0, v1
    and v2 are read-only views of one (n, 3, d, d) array, and its ``t``
    holds the n times.  ``states`` lists the per-state views of ``path``;
    it is built on first use.  ``truncated`` tells whether the flow stopped
    early, and ``reason`` why.
    """

    path: SymState
    truncated: bool
    reason: str | None

    @functools.cached_property
    def states(self) -> list[SymState]:
        return [self.path.at(i) for i in range(len(self.path.t))]


def _require_lambda(lam: complex):
    if lam == 0:
        raise ValueError("spectral parameter lambda must be nonzero")


def _central(x, one: RingElement, f=complex) -> RingElement:
    """f(x) * one for x a number; for x one number per batch position,
    each f(item) as a Python number, stacked as central elements.  With f
    ``complex`` the items are converted in one call, with the same bits."""
    if not np.ndim(x):
        return f(x) * one
    if f is complex:
        return MatrixElement.scalars(x, one.d)
    return MatrixElement.scalars([f(item) for item in x], one.d)


def build_A(s: PiiState) -> BlockMatrix:
    """Spectral-equation matrix; trace-free with A22 = -A11."""
    _require_lambda(s.lam)
    one = s.v.one_like()
    a11 = _central(s.z, one, lambda z: 8j * s.lam ** 2 - 2j * z) \
        + 1j * (s.v * s.v)
    c_term = _central(s.C, one, lambda c: 0.25 * c / s.lam)
    a12 = -1j * s.v_z + c_term - (4 * s.lam) * s.v
    a21 = 1j * s.v_z + c_term - (4 * s.lam) * s.v
    return BlockMatrix([[a11, a12], [a21, -a11]])


def build_B(v: RingElement, lam: complex) -> BlockMatrix:
    """z-equation matrix [[-2i lam, v], [v, 2i lam]]."""
    one = v.one_like()
    return BlockMatrix([[(-2j * lam) * one, v], [v, (2j * lam) * one]])


def _build_A_z(s: PiiState) -> BlockMatrix:
    # Chain rule applied to build_A entry by entry; exact, no stencils.
    one = s.v.one_like()
    a11 = 1j * (s.v_z * s.v + s.v * s.v_z) - 2j * one
    a12 = -1j * s.v_zz - (4 * s.lam) * s.v_z
    a21 = 1j * s.v_zz - (4 * s.lam) * s.v_z
    return BlockMatrix([[a11, a12], [a21, -a11]])


def _build_B_lambda(v: RingElement) -> BlockMatrix:
    one = v.one_like()
    zero = v.zero_like()
    return BlockMatrix([[-2j * one, zero], [zero, 2j * one]])


def zero_curvature_residual(s: PiiState) -> BlockMatrix:
    """A_z - B_lambda - (B A - A B), with A_z assembled analytically.

    The diagonal entries cancel identically for arbitrary v, v_z, v_zz;
    entry (0, 1) equals -i times the P-II residual and entry (1, 0)
    equals +i times it, independently of lambda.
    """
    a = build_A(s)
    b = build_B(s.v, s.lam)
    return (_build_A_z(s) - _build_B_lambda(s.v)) - (b @ a - a @ b)


def pii_residual_exact(v: RingElement, v_zz: RingElement, z,
                       C) -> RingElement:
    """v_zz - 2 v^3 + 2 [z, v]_+ - C, with z and C central.

    ``z`` and ``C`` are each a number or one number per batch position.
    """
    one = v.one_like()
    return (v_zz - 2 * (v * v * v) + 2 * anticommutator(_central(z, one), v)
            - _central(C, one))


def pii_residual_grid(f: GridFunction, C: complex) -> GridFunction:
    """Equation residual on interior points, v_zz by centred stencil; z is
    read from the grid."""
    require_stencil_length(f)
    inv_h2 = 1.0 / (f.h * f.h)
    zs = f.zs()
    out = f.batch.data[1:-1].copy()
    for lo in range(1, len(f) - 1, STENCIL_BLOCK):
        hi = min(lo + STENCIL_BLOCK, len(f) - 1)
        v = f[lo:hi]
        v_zz = (f[lo - 1:hi - 1] - 2 * v + f[lo + 1:hi + 1]) * inv_h2
        out[lo - 1:hi - 1] = pii_residual_exact(v, v_zz, zs[lo:hi], C).data
    return GridFunction(f.z0 + f.h, f.h, MatrixElement(out))


# -- symmetric three-field representation ---------------------------------

def _block_diag(blocks) -> BlockMatrix:
    zero = blocks[0].entry(0, 0).zero_like()
    size = 2 * len(blocks)
    rows = [[zero] * size for _ in range(size)]
    for b, block in enumerate(blocks):
        for i, row in enumerate(block.entries):
            rows[2 * b + i][2 * b:2 * b + 2] = row
    return BlockMatrix(rows)


def _L_blocks(s: SymState) -> list[BlockMatrix]:
    one = s.v0.one_like()
    zero = s.v0.zero_like()
    return [BlockMatrix([[one, zero], [-s.v0, -one]]),
            BlockMatrix([[one, zero], [-s.v1, -one]]),
            BlockMatrix([[-one, zero], [-s.v2, one]])]


def _P_blocks(s: SymState) -> list[BlockMatrix]:
    one = s.v0.one_like()
    zero = s.v0.zero_like()
    rho1 = -s.v2 - (0.5 * s.alpha0) * inverse(s.v0, "v0")
    rho2 = -s.v2 + (0.5 * s.alpha1) * inverse(s.v1, "v1")
    sigma = s.v0 - s.v1 + 2 * s.v2
    # Lower-left sign of the third block is forced by L3_t = [P3, L3]
    # together with v2' = v1 - v0.
    return [BlockMatrix([[rho1, zero], [zero, -rho1]]),
            BlockMatrix([[-rho2, zero], [zero, rho2]]),
            BlockMatrix([[-one, zero], [(-0.5) * sigma, one]])]


def build_L(s: SymState) -> BlockMatrix:
    return _block_diag(_L_blocks(s))


def build_P(s: SymState) -> BlockMatrix:
    return _block_diag(_P_blocks(s))


def symmetric_rhs(s: SymState) -> tuple[RingElement, RingElement, RingElement]:
    one = s.v0.one_like()
    return (anticommutator(s.v2, s.v0) + s.alpha0 * one,
            s.alpha1 * one - anticommutator(s.v2, s.v1), s.v1 - s.v0)


def lax_residual_symmetric(s: SymState) -> BlockMatrix:
    """L_t - (P L - L P), with L_t from the flow's derivatives
    symmetric_rhs(s); it vanishes when the Lax equation holds.

    L and P are block diagonal, so the residual is computed one 2x2 block
    at a time; the blocks off the diagonal are zero.  With a batched state,
    one evaluation covers every position.
    """
    zero = s.v0.zero_like()
    blocks = []
    for ell, pee, field_t in zip(_L_blocks(s), _P_blocks(s),
                                 symmetric_rhs(s)):
        ell_t = BlockMatrix([[zero, zero], [-field_t, zero]])
        blocks.append(ell_t - (pee @ ell - ell @ pee))
    return _block_diag(blocks)


def first_integral(s: SymState) -> RingElement:
    """v0 + v1 + v2^2 - (alpha0 + alpha1) t; constant along the flow.

    ``s.t`` is a number, or one number per position of a batched state.
    """
    t_term = _central((s.alpha0 + s.alpha1) * s.t, s.v0.one_like())
    return s.v0 + s.v1 + s.v2 * s.v2 - t_term


def first_integral_drift(path: SymState) -> float:
    """max over the states of |first_integral(s) - first_integral(s_0)|.

    ``path`` is a trajectory as one batched SymState (``FlowResult.path``);
    it is evaluated one STENCIL_BLOCK of states at a time, which gives the
    per-state values bit for bit.
    """
    f0 = first_integral(path.at(0))
    norms = []
    for lo in range(0, len(path.t), STENCIL_BLOCK):
        block = path.at(slice(lo, lo + STENCIL_BLOCK))
        norms += (first_integral(block) - f0).point_norms().tolist()
    return max(norms)


def normalize_first_integral(s: SymState) -> SymState:
    """Replace v1 so the conserved combination vanishes at this state."""
    one = s.v0.one_like()
    v1 = ((s.alpha0 + s.alpha1) * s.t) * one - s.v0 - s.v2 * s.v2
    return SymState(s.v0, v1, s.v2, s.alpha0, s.alpha1, s.t)


def integrate_symmetric(s0: SymState, t_end: float, h: float,
                        min_condition: float = COND_FLOOR) -> FlowResult:
    """Fixed-step RK4 flow of the symmetric system from s0.t to t_end.

    The trajectory is truncated (not an exception) when values stop being
    finite or when the invertibility margin of v0 or v1 drops below
    ``min_condition``; the returned FlowResult carries the reason.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    span = float(t_end) - s0.t
    steps = round(span / h)
    if steps < 1 or abs(steps * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("t range is not an integral number of steps")

    one, d = s0.v0.one_like(), s0.v0.d
    a0, a1 = (s0.alpha0 * one).data, (s0.alpha1 * one).data

    def rhs(t, y):
        # symmetric_rhs on the stacked state Y = (v0, v1, v2), with numpy's
        # @ as the product: on elements with d <= UNROLL_MAX_D, whose
        # products ring._product sums, it agrees to rounding, not the bit.
        Y, = y
        s = anticommutator(Y[2], Y[:2])
        out = np.empty_like(Y)
        np.add(s[0], a0, out=out[0])
        np.subtract(a1, s[1], out=out[1])
        np.subtract(Y[1], Y[0], out=out[2])
        return out,

    def monitor(times, ys):
        Y = np.concatenate([y for y, in ys])
        # A block passes on its norms and the inverses of v0 and v1 when
        # they certify every state (norms below 1e99 leave room for their
        # rounding against the SVD's 1e100 below).
        if (_squared_norms(Y) < 1e198).all() and _certified_inverse(
                Y.reshape(-1, 3, d, d)[:, :2], min_condition,
                saturate=True)[1].all():
            return None
        # Otherwise one batched SVD; rows are states, columns v0, v1, v2.
        smin, smax = (a.reshape(-1, 3)
                      for a in MatrixElement(Y).point_extremes())
        # Invertibility margin of v0 and v1: the smallest singular value,
        # saturated so tiny well-conditioned scalars are still flagged.
        margin = smin[:, :2] / np.maximum(smax[:, :2], 1.0)
        # Row-major order: per state, finiteness of v0, v1, v2, then margins.
        hits = np.argwhere(np.hstack([~(smax < 1e100),
                                      margin < min_condition]))
        if not len(hits):
            return None
        i, j = (int(x) for x in hits[0])
        if j < 3:
            return i, f"v{j} is no longer finite at t = {times[i]:.6g}"
        return i, (f"v{j - 3} is near-singular at t = {times[i]:.6g} "
                   f"(margin {margin[i, j - 3]:.3e})")

    y0 = np.stack([s0.v0.data, s0.v1.data, s0.v2.data])
    # Steps computed past a refused state must not warn of their overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        ys, reason = rk4_path(rhs, s0.t, (y0,), h, steps, monitor)
    t = s0.t + h * np.arange(len(ys))
    t.setflags(write=False)
    fields = map(_wrap, np.stack([y for y, in ys]).swapaxes(0, 1))
    return FlowResult(SymState(*fields, s0.alpha0, s0.alpha1, t),
                      reason is not None, reason)


def reduction_check(path: SymState) -> GridFunction:
    """P-II residual of the v2 component along a symmetric trajectory.

    ``path`` is the trajectory as one batched SymState
    (``FlowResult.path``).  Requires alpha0 + alpha1 = 2 (the scaling in
    which the eliminated equation is P-II with C = alpha1 - alpha0 and
    z = t) and a conserved combination of zero.  For a combination k != 0
    the equation holds in z = t + k/2; score it with ``pii_residual_grid(
    GridFunction(t0 + k/2, h, path.v2), alpha1 - alpha0)``.
    """
    if len(path.t) < 2:
        raise ValueError("trajectory too short")
    alpha_sum = path.alpha0 + path.alpha1
    if abs(alpha_sum - NORMALIZED_ALPHA_SUM) > 1e-12:
        raise ValueError(
            f"reduction needs alpha0 + alpha1 = {NORMALIZED_ALPHA_SUM}, "
            f"got {alpha_sum}")
    t0, t1 = path.t[:2].tolist()
    v2_grid = GridFunction(t0, t1 - t0, path.v2)
    return pii_residual_grid(v2_grid, path.alpha1 - path.alpha0)
