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
cross-checked.  The literal route inverts chi and phi of each stage's
point once and applies phi chi^-1 and chi phi^-1 to every later point;
the products associate as in the formulas above, so its bits are those
of applying the one-step maps one pair at a time.  The dressing
parameter gamma of each chain point is identified with the spectral
parameter at which its eigenfunctions were integrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import GridFunction
from .integrators import rk4_path
from .quasidet import BlockMatrix, quasideterminant
from .ring import MatrixElement, NearSingularError, RingElement

MAX_GRID_STEP = 1e-2


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


def integrate_linear(v: Callable[[float], RingElement], lam,
                     init: tuple[RingElement, RingElement], z0: float,
                     h: float, n: int):
    """RK4 integration of the eigenfunction pair along z.

    ``v`` evaluates the seed solution at any z; the n grid points run from
    z0 in steps of h.  The system is Psi_z = B Psi with Psi = (chi, phi)
    and B = ``laxpair.build_B(v, lam)``:

        chi' = -2i lam chi + v phi,   phi' = v chi + 2i lam phi.

    ``lam`` is one spectral parameter, giving one (chi, phi) pair of
    grids, or a sequence of them, giving a list of pairs.  All parameters
    are integrated as one stacked system: the RK4 state is one array of
    shape (2, len(lam), d, d) holding chi and phi at every parameter, and
    the right-hand side is D Psi plus v Psi with its two rows swapped,
    where the constant D holds -2i lam and 2i lam times the identity.
    """
    if h > MAX_GRID_STEP:
        raise ValueError(f"grid step {h} too coarse, need h <= {MAX_GRID_STEP}")
    chi0, phi0 = init
    if not (chi0.data.any() or phi0.data.any()):  # a norm can underflow
        raise ValueError("initial eigenfunction pair must not be zero")
    lams = [complex(x) for x in np.atleast_1d(lam)]
    D = np.asarray([[c * x for x in lams] for c in (-2.0 * 1j, 2.0 * 1j)]
                   )[..., None, None] * np.eye(chi0.d)

    def rhs(z, y):
        vz = v(z)
        chi0._require_same_ring(vz)
        Y, = y
        return D @ Y + (vz.data @ Y)[::-1],

    y0 = np.broadcast_to(np.stack([chi0.data, phi0.data])[:, None], D.shape)
    states, _ = rk4_path(rhs, z0, (y0,), h, n - 1)
    # One component at a time, to bound peak memory.
    chi, phi = ([GridFunction(z0, h, MatrixElement(x))
                 for x in np.stack([s[i] for s, in states], axis=1)]
                for i in (0, 1))
    pairs = list(zip(chi, phi))
    return pairs if np.ndim(lam) else pairs[0]


def _at_point(exc: NearSingularError, f: GridFunction, prefix: str
              ) -> NearSingularError:
    # Names the first refused grid point of f.
    k = exc.indices[0]
    return exc.relabel(f"{prefix}grid point {k} (z = {f.z(k):.6g})")


def _inv_at(f: GridFunction, name: str) -> MatrixElement:
    try:
        return f.batch.inv()
    except NearSingularError as exc:
        raise _at_point(exc, f, f"{name} at ") from exc


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


def _weight_matrix(points: Sequence[SpectralPoint], n: int,
                   first_row_chi: bool) -> BlockMatrix:
    # Rows r = 0..n carry weights gamma^r and alternate chi/phi entries;
    # columns run over points[n], points[n-1], ..., points[0].
    def entry(p, r):
        base = p.chi if (r % 2 == 0) == first_row_chi else p.phi
        return (p.gamma ** r) * base.batch

    return BlockMatrix([[entry(p, r) for p in reversed(points[:n + 1])]
                        for r in range(n + 1)])


def quasidet_eigenfunctions(points: Sequence[SpectralPoint], n: int
                            ) -> tuple[GridFunction, GridFunction]:
    """n-fold transformed eigenfunctions of points[0] via quasideterminants.

    ``points[1:n+1]`` are the dressing points already consumed; the
    transformed pair is the boxed bottom-right quasideterminant of the
    (n+1)x(n+1) alternating array with gamma-power row weights.  n = 0
    returns the raw pair; n = 1 reproduces dt_eigenfunctions exactly.
    """
    points = list(points)
    if len(points) < n + 1:
        raise ValueError(f"need {n + 1} spectral points, got {len(points)}")
    target = points[0]
    if n == 0:
        return target.chi, target.phi
    grid = target.chi
    try:
        chi = quasideterminant(_weight_matrix(points, n, True), n, n)
        phi = quasideterminant(_weight_matrix(points, n, False), n, n)
    except NearSingularError as exc:
        raise _at_point(exc, grid, "") from exc
    return (GridFunction(grid.z0, grid.h, chi),
            GridFunction(grid.z0, grid.h, phi))


def theta_factor(points: Sequence[SpectralPoint], k: int) -> GridFunction:
    """Stage-k dressing factor phi_k[k] * chi_k[k]^-1 as a grid."""
    # (k-1)-fold transformed eigenfunctions of chain point k (1-based):
    # target first, then the already-used points 1..k-1.
    chi_g, phi_g = quasidet_eigenfunctions(
        [points[k - 1]] + list(points[:k - 1]), k - 1)
    factor = phi_g.batch * _inv_at(chi_g, f"stage-{k} chi")
    return GridFunction(chi_g.z0, chi_g.h, factor)


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
    per-stage validity masks; T_k is theta_factor(chain.points, k).

    Grid points where a stage factor hits a near-singular inverse are
    masked there and in every later stage (NaN fill); no exception
    escapes.  Returns (grids, masks), both of length n + 1.
    """
    _check_fold(chain, n)
    grids = [chain.seed]
    masks = [np.ones(len(chain.seed), dtype=bool)]
    for k in range(1, n + 1):
        grid, mask = _masked(
            lambda sub, k=k: _dress(sub.seed,
                                    theta_factor(sub.points, k).batch),
            DressingChain(chain.points[:k], grids[-1]), masks[-1])
        grids.append(grid)
        masks.append(mask)
    return grids, masks


def masked_iterated(chain: DressingChain, n: int
                    ) -> tuple[GridFunction, np.ndarray]:
    """Final stage of the iterated route with a validity mask."""
    return _masked(lambda sub: iterated_darboux(sub, n),
                   DressingChain(chain.points[:n], chain.seed),
                   np.ones(len(chain.seed), dtype=bool))
