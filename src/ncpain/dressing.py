"""Darboux dressing: eigenfunction integration, one-step and N-fold maps.

The one-step transformation sends a solution v and an eigenfunction pair
(chi, phi) of its linear z-system at parameter gamma to

    v[1] = phi chi^-1 v phi chi^-1,

and transforms eigenfunctions at another parameter g0 by

    chi[1] = g0 phi0 - g1 phi1 chi1^-1 chi0
    phi[1] = g0 chi0 - g1 chi1 phi1^-1 phi0.

Iterating yields v[N] = T_N ... T_1 v T_1 ... T_N, where the stage-k
factor T_k is phi * chi^-1 built from the (k-1)-times transformed
eigenfunctions of the k-th chain point.  Those eigenfunctions are
assembled two independent ways: literal iteration of the formulas above,
and boxed-corner quasideterminants of the alternating chi/phi arrays
with gamma-power row weights.  Both routes are implemented and
cross-checked.  In chain order, the quasideterminants of every stage are
the pivots of one elimination of each N x N array, so that route
eliminates each array once and inverts each chi pivot once, for the
elimination and for T_k.  The literal route inverts chi and phi of each
stage's point once and applies phi chi^-1 and chi phi^-1 to every later
point; the products associate as in the formulas above, so its bits are
those of applying the one-step maps one pair at a time.  The dressing
parameter gamma of each chain point is identified with the spectral
parameter at which its eigenfunctions were integrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .grid import GridFunction
from .integrators import rk4_step
from .quasidet import eliminate
from .ring import MatrixElement, NearSingularError, RingElement

MAX_GRID_STEP = 1e-2
STEP_BLOCK = 64  # RK4 steps whose propagators one rk4_step call forms


@dataclass(frozen=True)
class SpectralPoint:
    """Dressing parameter and the eigenfunction pair integrated at it."""

    gamma: complex
    chi: GridFunction
    phi: GridFunction

    def __post_init__(self):
        if not self.chi.same_grid(self.phi):
            raise ValueError("chi and phi must share one grid")


@dataclass(frozen=True)
class DressingChain:
    """Ordered dressing points plus the seed solution they act on."""

    points: tuple[SpectralPoint, ...]
    seed: GridFunction

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        gammas = [p.gamma for p in self.points]
        if len(set(gammas)) != len(gammas):
            raise ValueError("dressing parameters must be pairwise distinct")
        for p in self.points:
            if not p.chi.same_grid(self.seed):
                raise ValueError("all chain grids must match the seed grid")


def integrate_linear(v: Callable[[np.ndarray], RingElement], lams,
                     init: tuple[RingElement, RingElement], z0: float,
                     h: float, n: int) -> list:
    """RK4 integration of the eigenfunction pair along z.

    The n grid points run from z0 in steps of h.  The system is
    Psi' = B Psi with Psi = (chi; phi), a 2d x d column, and
    B = ``laxpair.build_B(v, lam)`` for each lam in ``lams``:

        chi' = -2i lam chi + v phi,   phi' = v chi + 2i lam phi.

    It is linear, so one RK4 step is Psi_{k+1} = M_k Psi_k, where the
    propagator M_k is ``rk4_step`` applied to the 2d x 2d identity.  One
    ``rk4_step`` call forms the propagators of a block of STEP_BLOCK steps
    at once, and each grid point then costs one product.

    ``v`` is the seed, batched over z: given an array of abscissae it
    returns a MatrixElement with one value per abscissa, or one unbatched
    value, which then holds at every z.  It sees the abscissae of the
    stepwise RK4, z_k, z_k + h/2 and z_k + h, bit for bit.  ``lams`` is a
    sequence of spectral parameters, integrated as one stacked system; the
    result lists one (chi, phi) pair of grids per parameter.
    """
    if h > MAX_GRID_STEP:
        raise ValueError(f"grid step {h} too coarse, need h <= {MAX_GRID_STEP}")
    chi0, phi0 = init
    if not (chi0.data.any() or phi0.data.any()):  # a norm can underflow
        raise ValueError("initial eigenfunction pair must not be zero")
    d = chi0.d
    lams = np.array([complex(x) for x in lams])
    # B at every parameter, with its off-diagonal blocks left to v.
    diagonal = np.zeros((len(lams), 2 * d, 2 * d), complex)
    diagonal[:, :d, :d] = (-2.0 * 1j * lams)[:, None, None] * np.eye(d)
    diagonal[:, d:, d:] = (2.0 * 1j * lams)[:, None, None] * np.eye(d)

    def rhs(zs, y):
        vz = v(zs)
        chi0._require_same_ring(vz)
        b = np.repeat(diagonal[None], len(zs), axis=0)
        vd = vz.data[:, None] if vz.data.ndim == 3 else vz.data
        b[..., :d, d:] = vd
        b[..., d:, :d] = vd
        return b @ y[0],

    eye = np.eye(2 * d, dtype=complex)
    psi = np.empty((n, len(lams), 2 * d, d), complex)
    psi[0] = np.concatenate([chi0.data, phi0.data])
    for lo in range(0, n - 1, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, n - 1)
        props, = rk4_step(rhs, z0 + h * np.arange(lo, hi), (eye,), h)
        for k in range(lo, hi):
            np.matmul(props[k - lo], psi[k], out=psi[k + 1])
    return [(GridFunction(z0, h, MatrixElement(psi[:, j, :d])),
             GridFunction(z0, h, MatrixElement(psi[:, j, d:])))
            for j in range(len(lams))]


def _inv_at(f: GridFunction, name: str) -> MatrixElement:
    try:
        return f.batch.inv()
    except NearSingularError as exc:  # names the first refused grid point
        k = exc.indices[0]
        raise exc.relabel(f"{name} at grid point {k} (z = {f.z(k):.6g})"
                          ) from exc


def _dress(v: GridFunction, factor: MatrixElement) -> GridFunction:
    return GridFunction(v.z0, v.h, factor * v.batch * factor)


def darboux_once(v: GridFunction, p: SpectralPoint) -> GridFunction:
    """phi chi^-1 v phi chi^-1 at every point of the common grid."""
    if not p.chi.same_grid(v):
        raise ValueError("spectral point grid must match the solution grid")
    return _dress(v, p.phi.batch * _inv_at(p.chi, "chi"))


def dt_eigenfunctions(gamma0: complex, chi0: GridFunction, phi0: GridFunction,
                      gamma1: complex, chi1: GridFunction, phi1: GridFunction
                      ) -> tuple[GridFunction, GridFunction]:
    """One-step transformed eigenfunctions of the point (gamma0, chi0, phi0).

    chi[1] = g0 phi0 - g1 phi1 chi1^-1 chi0 and
    phi[1] = g0 chi0 - g1 chi1 phi1^-1 phi0, evaluated pointwise.
    """
    for other in (phi0, chi1, phi1):
        if not chi0.same_grid(other):
            raise ValueError("all eigenfunction grids must match")
    forward = phi1.batch * _inv_at(chi1, "chi1")
    return _transform(gamma0, chi0, phi0, gamma1, forward,
                      chi1.batch * _inv_at(phi1, "phi1"))


def _transform(gamma0: complex, chi0: GridFunction, phi0: GridFunction,
               gamma1: complex, forward: MatrixElement,
               backward: MatrixElement) -> tuple[GridFunction, GridFunction]:
    # dt_eigenfunctions given the factors phi1 chi1^-1 and chi1 phi1^-1 of
    # the point it dresses with; products associate from the left, as there.
    chi_out = gamma0 * phi0.batch - gamma1 * (forward * chi0.batch)
    phi_out = gamma0 * chi0.batch - gamma1 * (backward * phi0.batch)
    return (GridFunction(chi0.z0, chi0.h, chi_out),
            GridFunction(chi0.z0, chi0.h, phi_out))


def stage_eigenfunctions(points: Sequence[SpectralPoint],
                         invert: Callable[[MatrixElement, int], MatrixElement]
                         ) -> Iterator[tuple[MatrixElement, ...]]:
    """Yields (chi, phi, chi^-1) of each stage k = 1..len(points) in turn.

    chi and phi of stage k, the (k-1)-fold transformed eigenfunctions of
    ``points[k-1]``, are the boxed corner quasideterminants of the leading
    k x k blocks of two arrays: row r holds gamma^r chi and gamma^r phi
    alternately, led by chi or phi, and the columns run over the points in
    chain order.  So they are pivot k-1 of the arrays' eliminations.  The
    phi array is eliminated first, keeping its pivots, then the chi array,
    yielding stage k at its pivot k-1.  ``invert(pivot, k)`` inverts each
    pivot needed once; k is the first stage that its inverse feeds.
    """
    def weights(chi_first):
        return [[(p.gamma ** r) * (p.chi if (r % 2 == 0) == chi_first
                                   else p.phi).batch for p in points]
                for r in range(len(points))]

    m, phis = weights(False), []
    for k in range(1, len(points) + 1):
        phis.append(m[0][0])
        if k < len(points):
            eliminate(m, invert(m[0][0], k + 1))
    m = weights(True)
    for k, phi in enumerate(phis, 1):
        chi_inv = invert(m[0][0], k)
        yield m[0][0], phi, chi_inv
        eliminate(m, chi_inv)


def _check_fold(chain: DressingChain, n: int):
    if n < 0 or n > len(chain.points):
        raise ValueError(f"fold count {n} outside 0..{len(chain.points)}")


def iterated_darboux(chain: DressingChain, n: int) -> GridFunction:
    """v[n] by literal iteration: dress, transform remaining eigenfunctions.

    Independent of the quasideterminant route; used to cross-check it.
    Only the first n chain points are used and transformed.  Stage k
    inverts chi and phi of its point once and reuses phi chi^-1 and
    chi phi^-1 for every later point, with the bits and refusals of
    darboux_once and dt_eigenfunctions.
    """
    _check_fold(chain, n)
    v = chain.seed
    current = list(chain.points[:n])
    for k in range(n):
        p = current[k]
        forward = p.phi.batch * _inv_at(p.chi, "chi")
        v = _dress(v, forward)
        if k + 1 < n:
            backward = p.chi.batch * _inv_at(p.phi, "phi1")
        for j in range(k + 1, n):
            q = current[j]
            current[j] = SpectralPoint(q.gamma, *_transform(
                q.gamma, q.chi, q.phi, p.gamma, forward, backward))
    return v


# -- masked pipeline -------------------------------------------------------

def _masked(route: Callable[[DressingChain], GridFunction],
            chain: DressingChain, valid: np.ndarray
            ) -> tuple[GridFunction, np.ndarray]:
    """route(chain) on the ``valid`` grid points, NaN-filled elsewhere.

    Points a refusal lists are dropped and the strict route reruns on the
    rest.  Returns the filled grid and the mask of the points it covers.
    A rerun's sub-grids keep the full grid's z0 and h: routes must not read z.
    """
    seed = chain.seed
    data = np.full(seed.batch.data.shape, complex("nan+nanj"))
    keep = np.flatnonzero(valid)

    def take(f):  # f on the points still kept (no copy while all are)
        return f if keep.size == len(f) else GridFunction(f.z0, f.h, f[keep])

    while keep.size:
        points = [SpectralPoint(p.gamma, take(p.chi), take(p.phi))
                  for p in chain.points]
        try:
            data[keep] = route(DressingChain(points, take(seed))).batch.data
            break
        except NearSingularError as exc:
            if exc.indices is None:
                raise
            keep = np.delete(keep, exc.indices)
    return (GridFunction(seed.z0, seed.h, MatrixElement(data)),
            np.isin(np.arange(len(seed)), keep))


def masked_n_fold(chain: DressingChain, n: int
                  ) -> tuple[list[GridFunction], list[np.ndarray]]:
    """All stages v[k] = T_k ... T_1 v T_1 ... T_k, k = 0..n, with
    per-stage validity masks; T_k = phi chi^-1 of stage k from one
    ``stage_eigenfunctions`` pass over the first n chain points.

    A grid point where a pivot inverse is refused is masked (NaN fill)
    from the first stage that pivot feeds on: stage k needs chi pivots
    0..k-1 and phi pivots 0..k-2.  No exception escapes.  Returns
    (grids, masks), both of length n + 1.
    """
    _check_fold(chain, n)
    dead = np.full(len(chain.seed), n + 1)  # first stage masking each point

    def invert(pivot, stage):
        # NaN at the refused grid points, masked from ``stage`` on; the
        # identity stands in for them while the rest is inverted again.
        try:
            return pivot.inv()
        except NearSingularError as exc:
            refused = list(exc.indices)
        dead[refused] = np.minimum(dead[refused], stage)
        data = pivot.data.copy()
        data[refused] = np.eye(pivot.d)
        data = invert(MatrixElement(data), stage).data.copy()
        data[refused] = complex("nan+nanj")
        return MatrixElement(data)

    grids = [chain.seed]
    for _, phi, chi_inv in stage_eigenfunctions(chain.points[:n], invert):
        grids.append(_dress(grids[-1], phi * chi_inv))
    return grids, [dead > k for k in range(n + 1)]


def masked_iterated(chain: DressingChain, n: int
                    ) -> tuple[GridFunction, np.ndarray]:
    """Final stage of the iterated route with a validity mask."""
    return _masked(lambda sub: iterated_darboux(sub, n),
                   DressingChain(chain.points[:n], chain.seed),
                   np.ones(len(chain.seed), dtype=bool))
