import numpy as np
import pytest

from ncpain.ring import MatrixElement, NearSingularError
from ncpain.quasidet import BlockMatrix, determinant_ratio, quasideterminant
from ncpain.grid import GridFunction
from ncpain.laxpair import build_B
from ncpain.solutions import seed_value
from ncpain.dressing import (DressingChain, SpectralPoint, darboux_once,
                             dt_eigenfunctions, integrate_linear,
                             masked_iterated, masked_n_fold,
                             stage_eigenfunctions)

from conftest import gaussian_element, n_fold

ONE = MatrixElement.eye(1)


def zero_field(z):
    # Unbatched and constant in z: integrate_linear broadcasts it.
    return MatrixElement.zeros(1)


def rational_field(z):
    return seed_value(1, z, 1)


def random_grid(rng, d, n=8, z0=1.0, h=1e-3, shift=2.0):
    vals = tuple(gaussian_element(rng, d) + shift for _ in range(n))
    return GridFunction(z0, h, vals)


def random_point(rng, gamma, d=2, n=8):
    return SpectralPoint(gamma, random_grid(rng, d, n), random_grid(rng, d, n))


def grid_diff(a, b):
    return max((x - y).norm() for x, y in zip(a, b))


def take(chain, keep):
    """The chain on the grid points ``keep`` marks; the grids keep z0 and h."""
    def cut(f):
        return GridFunction(f.z0, f.h, f[np.flatnonzero(keep)])

    return DressingChain(tuple(SpectralPoint(p.gamma, cut(p.chi), cut(p.phi))
                               for p in chain.points), cut(chain.seed))


def edit(f, k, value):
    """The grid f with ``value`` at grid point k."""
    data = f.batch.data.copy()
    data[k] = value
    return GridFunction(f.z0, f.h, MatrixElement(data))


def weighted_array(columns, n, k, first_row_chi):
    """The gamma-weighted alternating chi/phi array over columns[:n + 1],
    at grid point k alone, or batched over the grid when k is None."""
    def pick(f):
        return f.batch if k is None else f[k]

    rows = []
    for r in range(n + 1):
        chi_row = (r % 2 == 0) == first_row_chi
        rows.append([(p.gamma ** r) * pick(p.chi if chi_row else p.phi)
                     for p in columns[:n + 1]])
    return BlockMatrix(rows)


def plain_inverse(pivot, stage):
    return pivot.inv()


def transformed_pair(target, consumed):
    """(chi, phi) of target transformed by the consumed chain points: the
    last stage of ``stage_eigenfunctions``, as grids."""
    *_, (chi, phi, _) = stage_eigenfunctions(list(consumed) + [target],
                                             plain_inverse)
    grid = target.chi
    return (GridFunction(grid.z0, grid.h, chi),
            GridFunction(grid.z0, grid.h, phi))


class TestIntegrateLinear:
    def test_zero_field_exponentials(self):
        lam = 1 + 0.5j
        [(chi, phi)] = integrate_linear(zero_field, [lam], (ONE, ONE),
                                        0.0, 1e-3, 1001)
        worst = 0.0
        for k in (0, 100, 500, 1000):
            z = chi.z(k)
            worst = max(worst,
                        abs(chi[k].data[0, 0] - np.exp(-2j * lam * z)),
                        abs(phi[k].data[0, 0] - np.exp(2j * lam * z)))
        assert worst <= 1e-9

    def test_pairs_solve_the_b_matrix_z_equation(self):
        # Psi = (chi, phi) must satisfy Psi_z = build_B(v(z), gamma) Psi.
        # Centred differences of the grids leave an O(h^2) residual; any
        # other diagonal factor would leave an O(1) one.
        rng = np.random.default_rng(5)
        m1, m2 = (gaussian_element(rng, 2, 0.5) for _ in range(2))

        def v(zs):  # batched over z
            return MatrixElement(np.multiply.outer(1.0 / zs, m1.data)
                                 + np.multiply.outer(zs, m2.data))

        gammas = (1j, 0.5 - 0.3j)
        one = MatrixElement.eye(2)

        def worst_residual(h):
            n = round(0.2 / h) + 1
            pairs = integrate_linear(v, gammas, (one, one), 1.0, h, n)
            worst = 0.0
            for gamma, (chi, phi) in zip(gammas, pairs):
                vs = v(chi.zs())
                for k in range(1, n - 1):
                    b = build_B(MatrixElement(vs.data[k]), gamma)
                    for row, f in enumerate((chi, phi)):
                        rhs = (b.entry(row, 0) * chi[k]
                               + b.entry(row, 1) * phi[k])
                        lhs = (f[k + 1] - f[k - 1]) * (0.5 / h)
                        worst = max(worst, (lhs - rhs).norm())
            return worst

        coarse, fine = worst_residual(2e-3), worst_residual(1e-3)
        assert fine <= 1e-3
        assert 3.5 <= coarse / fine <= 4.5

    def test_fourth_order_convergence(self):
        lam = 1j

        def endpoint(h):
            n = round(1.0 / h) + 1
            [(chi, _)] = integrate_linear(rational_field, [lam], (ONE, ONE),
                                          1.0, h, n)
            return chi[len(chi) - 1]

        ref = endpoint(1.25e-4)
        e_coarse = (endpoint(2e-3) - ref).norm()
        e_fine = (endpoint(1e-3) - ref).norm()
        assert 12.0 <= e_coarse / e_fine <= 20.0

    def test_rational_seed_chi_stays_invertible(self):
        [(chi, _)] = integrate_linear(rational_field, [1j], (ONE, ONE),
                                      1.0, 1e-3, 1001)
        margin = min(v.singular_extremes()[0] for v in chi)
        assert margin > 1e-3

    def test_matches_plain_numpy_rk4_bit_for_bit(self):
        # A noncentral d = 3 seed and two lambdas over 149 steps, so three
        # blocks of propagators.  The reference is plain numpy in the order
        # of integrate_linear and rk4_step: each step's propagator is RK4 on
        # the 6 x 6 identity, and each grid point is one product.  It forms
        # one step at a time, so the bits do not depend on the blocks.
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        init = (MatrixElement(rng.standard_normal((3, 3))),
                MatrixElement(np.eye(3) + 0.5j * rng.standard_normal((3, 3))))
        lams, z0, h, n = np.array([1j, 2 - 0.5j]), 1.0, 1e-3, 150

        def seed(z):  # (3, 3) at one z, (len(z), 3, 3) at an array of them
            return np.multiply.outer(1.0 / z, m)

        pairs = integrate_linear(lambda zs: MatrixElement(seed(zs)), lams,
                                 init, z0, h, n)

        def b_matrix(z):
            b = np.zeros((2, 6, 6), complex)
            b[:, :3, :3] = (-2.0 * 1j * lams)[:, None, None] * np.eye(3)
            b[:, 3:, 3:] = (2.0 * 1j * lams)[:, None, None] * np.eye(3)
            b[:, :3, 3:] = b[:, 3:, :3] = seed(z)
            return b

        eye = np.eye(6, dtype=complex)
        half, two, sixth = complex(h / 2), complex(2), complex(h / 6)
        psi = [np.broadcast_to(np.concatenate([el.data for el in init]),
                               (2, 6, 3))]
        for k in range(n - 1):
            z = z0 + k * h
            k1 = b_matrix(z) @ eye
            k2 = b_matrix(z + h / 2) @ (eye + half * k1)
            k3 = b_matrix(z + h / 2) @ (eye + half * k2)
            k4 = b_matrix(z + h) @ (eye + complex(h) * k3)
            step = eye + sixth * (k1 + two * k2 + two * k3 + k4)
            psi.append(step @ psi[-1])
        psi = np.stack(psi)

        assert len(pairs) == 2
        for j, (chi, phi) in enumerate(pairs):
            assert chi.batch.data.tobytes() == psi[:, j, :3].tobytes()
            assert phi.batch.data.tobytes() == psi[:, j, 3:].tobytes()

    def test_rejects_zero_init(self):
        zero = MatrixElement.zeros(1)
        with pytest.raises(ValueError):
            integrate_linear(zero_field, [1j], (zero, zero), 0.0, 1e-3, 10)

    def test_rejects_negative_zero_init(self):
        zero = MatrixElement(np.full((1, 1), complex(-0.0, -0.0)))
        with pytest.raises(ValueError):
            integrate_linear(zero_field, [1j], (zero, zero), 0.0, 1e-3, 10)

    def test_tiny_nonzero_init_is_not_zero(self):
        # Entries this small square to 0.0 inside a Frobenius norm.
        tiny = MatrixElement(1e-170 * np.eye(2))
        [(chi, phi)] = integrate_linear(
            lambda zs: MatrixElement.scalars(0 * zs, 2), [1j], (tiny, tiny),
            1.0, 1e-3, 5)
        # chi' = 2 chi and phi' = -2 phi at lambda = i with v = 0.
        for grid, rate in ((chi, 2.0), (phi, -2.0)):
            assert np.allclose(grid[4].data,
                               1e-170 * np.exp(rate * 4e-3) * np.eye(2),
                               rtol=1e-9, atol=0.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            integrate_linear(zero_field, [1j], (ONE, ONE), 0.0, 0.1, 10)

    def test_lambdas_are_a_sequence(self):
        # One lambda is spelled [lam]; a bare number is no sequence.
        with pytest.raises(TypeError):
            integrate_linear(zero_field, 1j, (ONE, ONE), 0.0, 1e-3, 10)


class TestDarbouxOnce:
    def test_zero_seed_fixed_point(self, rng):
        p = random_point(rng, 1j, d=2)
        seed = GridFunction(p.chi.z0, p.chi.h,
                            tuple(MatrixElement.zeros(2)
                                  for _ in range(len(p.chi))))
        dressed = darboux_once(seed, p)
        assert dressed.sup_norm() == 0.0

    def test_equal_pair_is_identity_for_scalars(self, rng):
        chi = random_grid(rng, 1)
        p = SpectralPoint(0.5j, chi, chi)
        seed = random_grid(rng, 1)
        assert grid_diff(darboux_once(seed, p), seed) <= 1e-12

    def test_scalar_commutative_closed_form(self, rng):
        p = random_point(rng, 1j, d=1)
        seed = random_grid(rng, 1)
        dressed = darboux_once(seed, p)
        for k in range(len(seed)):
            chi = p.chi[k].data[0, 0]
            phi = p.phi[k].data[0, 0]
            v = seed[k].data[0, 0]
            expected = (phi / chi) ** 2 * v
            assert abs(dressed[k].data[0, 0] - expected) \
                <= 1e-12 * max(1.0, abs(expected))

    def test_singular_point_is_named(self, rng):
        vals = [gaussian_element(rng, 1) + 2.0 for _ in range(6)]
        vals[3] = MatrixElement.scalar(0.0)
        p = SpectralPoint(1j, GridFunction(1.0, 1e-3, tuple(vals)),
                          random_grid(rng, 1, 6))
        with pytest.raises(NearSingularError) as err:
            darboux_once(random_grid(rng, 1, 6), p)
        assert "grid point 3" in str(err.value)


class TestEigenfunctionTransforms:
    def test_zero_gamma1_keeps_first_term(self, rng):
        chi0, phi0 = random_grid(rng, 2), random_grid(rng, 2)
        chi1, phi1 = random_grid(rng, 2), random_grid(rng, 2)
        g0 = 2.0 - 1j
        chi_t, phi_t = dt_eigenfunctions(g0, chi0, phi0, 0.0, chi1, phi1)
        assert grid_diff(chi_t, GridFunction(chi0.z0, chi0.h,
                                             tuple(g0 * v for v in phi0))) == 0.0
        assert grid_diff(phi_t, GridFunction(chi0.z0, chi0.h,
                                             tuple(g0 * v for v in chi0))) == 0.0

    def test_self_annihilation(self, rng):
        chi, phi = random_grid(rng, 2), random_grid(rng, 2)
        g = 1.5j
        chi_t, phi_t = dt_eigenfunctions(g, chi, phi, g, chi, phi)
        assert chi_t.sup_norm() <= 1e-12
        assert phi_t.sup_norm() <= 1e-12

    def test_quasidet_route_matches_direct_n1(self, rng):
        p1 = random_point(rng, 1j)
        p0 = random_point(rng, 2j)
        direct = dt_eigenfunctions(p0.gamma, p0.chi, p0.phi,
                                   p1.gamma, p1.chi, p1.phi)
        via_qd = transformed_pair(p0, [p1])
        assert grid_diff(via_qd[0], direct[0]) <= 1e-12
        assert grid_diff(via_qd[1], direct[1]) <= 1e-12

    def test_quasidet_route_matches_two_step_n2(self, rng):
        p1 = random_point(rng, 1j)
        p2 = random_point(rng, 2j)
        target = random_point(rng, 3j)
        # step 1: transform target and p2 by the particular point p1
        t_chi, t_phi = dt_eigenfunctions(target.gamma, target.chi, target.phi,
                                         p1.gamma, p1.chi, p1.phi)
        q_chi, q_phi = dt_eigenfunctions(p2.gamma, p2.chi, p2.phi,
                                         p1.gamma, p1.chi, p1.phi)
        # step 2: transform the updated target by the updated p2
        direct = dt_eigenfunctions(target.gamma, t_chi, t_phi,
                                   p2.gamma, q_chi, q_phi)
        via_qd = transformed_pair(target, [p1, p2])
        ref = max(1.0, direct[0].sup_norm(), direct[1].sup_norm())
        assert grid_diff(via_qd[0], direct[0]) <= 1e-10 * ref
        assert grid_diff(via_qd[1], direct[1]) <= 1e-10 * ref

    def test_refusals_name_the_inverse_and_the_grid_point(self, rng):
        chi0, phi0 = random_grid(rng, 3), random_grid(rng, 3)
        chi1, phi1 = random_grid(rng, 3), random_grid(rng, 3)

        with pytest.raises(NearSingularError) as err:
            dt_eigenfunctions(2j, chi0, phi0, 1j, edit(chi1, 3, 0.0), phi1)
        assert str(err.value) == ("matrix is near-singular (condition ~ inf)"
                                  " [chi1 at grid point 3 (z = 1.003)]")
        rank_one = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
        with pytest.raises(NearSingularError) as err:
            dt_eigenfunctions(2j, chi0, phi0, 1j, chi1,
                              edit(phi1, 5, rank_one))
        assert str(err.value).endswith(" [phi1 at grid point 5 (z = 1.005)]")
        assert err.value.indices == (5,)

    def test_all_zero_gammas_degenerate(self, rng):
        # zero weights wipe out whole rows of the eigenfunction array
        points = [random_point(rng, 0.0) for _ in range(3)]
        with pytest.raises(NearSingularError):
            list(stage_eigenfunctions(points, plain_inverse))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quasidet_route_matches_determinant_ratio(self, n):
        # d = 1 oracle sharing no arithmetic with the quasideterminant
        # route: numpy determinants of the same weighted array, the target
        # column last.
        points = []
        for gamma in (3j, 1j, 2j, 0.5j)[:n + 1]:
            [(chi, phi)] = integrate_linear(rational_field, [gamma],
                                            (ONE, ONE), 1.0, 1e-3, 1001)
            points.append(SpectralPoint(gamma, chi, phi))
        columns = points[1:] + points[:1]
        worst = 0.0
        for first_row_chi, grid in zip((True, False),
                                       transformed_pair(points[0],
                                                        points[1:])):
            for k in range(len(grid)):
                expected = determinant_ratio(
                    weighted_array(columns, n, k, first_row_chi), n, n)
                got = complex(grid[k].data[0, 0])
                worst = max(worst, abs(got - expected) / abs(expected))
        assert worst <= 1e-10

    def test_zero_gamma_chain_fails_at_second_stage(self, rng):
        p1 = random_point(rng, 0.0)
        p2 = SpectralPoint(0.0, p1.chi, p1.phi)
        stages = []

        def invert(pivot, stage):
            stages.append(stage)
            return pivot.inv()

        with pytest.raises(NearSingularError):
            list(stage_eigenfunctions([p1, p2], invert))
        assert stages[-1] == 2


class TestNFold:
    def _chain(self, rng, n_points=2, d=2, n=8):
        gammas = [1j, 2j, 3j, 0.5 - 0.5j][:n_points]
        points = tuple(random_point(rng, g, d, n) for g in gammas)
        seed = random_grid(rng, d, n)
        return DressingChain(points, seed)

    def test_zero_fold_returns_seed(self, rng):
        chain = self._chain(rng)
        assert n_fold(chain, 0) is chain.seed

    def test_one_fold_equals_darboux_once(self, rng):
        chain = self._chain(rng)
        a = n_fold(chain, 1)
        b = darboux_once(chain.seed, chain.points[0])
        assert grid_diff(a, b) <= 1e-12 * max(1.0, b.sup_norm())

    def test_two_fold_equals_iterated(self, rng):
        chain = self._chain(rng, n_points=2)
        a = n_fold(chain, 2)
        b, mask = masked_iterated(chain, 2)
        assert mask.all()
        assert grid_diff(a, b) <= 1e-10 * max(1.0, b.sup_norm())

    def test_three_fold_cross_check(self, rng):
        chain = self._chain(rng, n_points=3)
        a = n_fold(chain, 3)
        b, mask = masked_iterated(chain, 3)
        assert mask.all()
        assert grid_diff(a, b) <= 1e-8 * max(1.0, b.sup_norm())

    def test_zero_seed_fixed_point_exact(self, rng):
        points = tuple(random_point(rng, g, 2) for g in (1j, 2j))
        seed = GridFunction(points[0].chi.z0, points[0].chi.h,
                            tuple(MatrixElement.zeros(2) for _ in range(8)))
        chain = DressingChain(points, seed)
        assert n_fold(chain, 2).sup_norm() == 0.0

    def test_matches_pointwise_evaluation_exactly(self, rng):
        # The same generic formulas evaluated one grid point at a time,
        # the columns in chain order.
        chain = self._chain(rng, n_points=3)
        dressed = n_fold(chain, 3)
        for k in range(len(dressed)):
            acc = chain.seed[k]
            for stage in range(1, 4):
                n = stage - 1
                seq = chain.points[:stage]
                chi = quasideterminant(weighted_array(seq, n, k, True), n, n)
                phi = quasideterminant(weighted_array(seq, n, k, False), n, n)
                factor = phi * chi.inv()
                acc = factor * acc * factor
            assert np.array_equal(dressed[k].data, acc.data)

    def test_stage_one_factor(self, rng):
        chain = self._chain(rng)
        _, phi, chi_inv = next(stage_eigenfunctions(chain.points,
                                                    plain_inverse))
        factor = GridFunction(chain.seed.z0, chain.seed.h, phi * chi_inv)
        p = chain.points[0]
        for k in range(len(factor)):
            expected = p.phi[k] * p.chi[k].inv()
            assert (factor[k] - expected).norm() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_stage_pairs_match_reversed_column_quasideterminants(self, rng,
                                                                 d):
        # Each stage's pair is a quasideterminant, whatever the order of
        # the columns before the target's; the per-stage arrays had them
        # reversed, so their pivots differ from the shared elimination's.
        chain = self._chain(rng, n_points=4, d=d)
        p = chain.points[0]
        assert (p.phi.batch * p.chi.batch - p.chi.batch * p.phi.batch
                ).norm() > 1.0  # genuinely noncommuting data
        pairs = stage_eigenfunctions(chain.points, plain_inverse)
        for k, (chi, phi, _) in enumerate(pairs, 1):
            n = k - 1
            columns = chain.points[:n][::-1] + chain.points[n:n + 1]
            for got, chi_first in ((chi, True), (phi, False)):
                ref = quasideterminant(
                    weighted_array(columns, n, None, chi_first),
                    n, n)
                rel = (got - ref).point_norms() / ref.point_norms()
                assert rel.max() <= 1e-10

    def test_one_elimination_per_array(self, rng, monkeypatch):
        # N = 4: the phi array's 20 elimination products and 3 pivot
        # inverses, the chi array's 20 and 4, one product per factor
        # phi chi^-1 and two per dressed stage.
        chain = self._chain(rng, n_points=4, d=3)
        calls = {"inv": 0, "mul": 0}
        inv, mul = MatrixElement.inv, MatrixElement._mul

        def counted_inv(self):
            calls["inv"] += 1
            return inv(self)

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(MatrixElement, "inv", counted_inv)
        monkeypatch.setattr(MatrixElement, "_mul", counted_mul)
        n_fold(chain, 4)
        assert calls == {"inv": 7, "mul": 52}

    def test_duplicate_gammas_rejected(self, rng):
        p1 = random_point(rng, 1j)
        p2 = random_point(rng, 1j)
        with pytest.raises(ValueError):
            DressingChain((p1, p2), random_grid(rng, 2))

    def test_mismatched_grids_rejected(self, rng):
        p1 = random_point(rng, 1j, n=8)
        with pytest.raises(ValueError):
            DressingChain((p1,), random_grid(rng, 2, n=9))


def literal_iterated(chain, n):
    """v[n] as the plain composition of darboux_once and dt_eigenfunctions,
    each inverting chi and phi of the dressing point for itself."""
    v = chain.seed
    current = list(chain.points[:n])
    for k in range(n):
        p = current[k]
        v = darboux_once(v, p)
        for j in range(k + 1, n):
            q = current[j]
            current[j] = SpectralPoint(q.gamma, *dt_eigenfunctions(
                q.gamma, q.chi, q.phi, p.gamma, p.chi, p.phi))
    return v


class TestIteratedRoute:
    """masked_iterated inverts each stage's chi and phi once; it must give
    the bits of the literal composition, and mask the points it refuses."""

    GAMMAS = (1j, 2j, 0.5 - 0.5j, -1.5 + 0.25j)

    def _chain(self, rng, n=12):
        points = tuple(random_point(rng, g, d=3, n=n) for g in self.GAMMAS)
        return DressingChain(points, random_grid(rng, 3, n))

    def test_noncommuting_chain_matches_the_composition(self, rng):
        chain = self._chain(rng)
        p = chain.points[0]
        assert (p.phi.batch * p.chi.batch - p.chi.batch * p.phi.batch
                ).norm() > 1.0  # genuinely noncommuting data
        for n in range(5):
            got, mask = masked_iterated(chain, n)
            assert mask.all()
            assert got.batch.data.tobytes() \
                == literal_iterated(chain, n).batch.data.tobytes()

    def test_refusals_and_masks_match_the_composition(self, rng):
        # Grid point 3: chi of point 1 is zero, refused at stage 1.  Grid
        # point 5: phi of point 1 is rank one, refused at stage 1 once later
        # points remain.  Grid point 8: every eigenfunction
        # is a multiple of the identity chosen so that the stage-2 chi,
        # 2i (0.5) - 1i (1)(1)^-1 (1), is exactly zero.
        chain = self._chain(rng)
        (p1, p2, p3, p4), seed = chain.points, chain.seed
        eye = np.eye(3)
        rank_one = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
        p1 = SpectralPoint(p1.gamma, edit(edit(p1.chi, 3, 0.0), 8, eye),
                           edit(edit(p1.phi, 5, rank_one), 8, eye))
        p2 = SpectralPoint(p2.gamma, edit(p2.chi, 8, eye),
                           edit(p2.phi, 8, 0.5 * eye))
        chain = DressingChain((p1, p2, p3, p4), seed)
        refused = {0: [], 1: [3], 2: [3, 5, 8], 3: [3, 5, 8], 4: [3, 5, 8]}
        for n, points in refused.items():
            got, mask = masked_iterated(chain, n)
            assert np.flatnonzero(~mask).tolist() == points
            gone = got.batch.data[~mask]
            assert np.isnan(gone.real).all() and np.isnan(gone.imag).all()
            assert got.batch.data[mask].tobytes() \
                == literal_iterated(take(chain, mask), n).batch.data.tobytes()


class TestMaskedPipeline:
    def test_masks_singular_points(self, rng):
        n = 10
        chi_vals = [gaussian_element(rng, 1) + 2.0 for _ in range(n)]
        chi_vals[4] = MatrixElement.scalar(0.0)
        p1 = SpectralPoint(1j, GridFunction(1.0, 1e-3, tuple(chi_vals)),
                           random_grid(rng, 1, n))
        p2 = random_point(rng, 2j, d=1, n=n)
        seed = random_grid(rng, 1, n)
        chain = DressingChain((p1, p2), seed)
        grids, masks = masked_n_fold(chain, 2)
        assert masks[0].all()
        assert not masks[1][4] and masks[1].sum() == n - 1
        assert not masks[2][4]
        assert np.isnan(grids[1][4].data[0, 0].real)
        direct, direct_mask = masked_iterated(chain, 2)
        assert not direct_mask[4]
        common = masks[2] & direct_mask
        diffs = [(a - b).norm() for a, b, ok in
                 zip(grids[2], direct, common) if ok]
        assert max(diffs) <= 1e-10 * max(1.0, grids[2].sup_norm(common))

    def test_no_masking_on_clean_data(self, rng):
        points = tuple(random_point(rng, g, 2) for g in (1j, 2j))
        chain = DressingChain(points, random_grid(rng, 2))
        grids, masks = masked_n_fold(chain, 2)
        assert all(m.all() for m in masks)
        # The unmasked stage formulas, composed by hand.
        strict = chain.seed
        for _, phi, chi_inv in stage_eigenfunctions(chain.points,
                                                    plain_inverse):
            factor = phi * chi_inv
            strict = GridFunction(strict.z0, strict.h,
                                  factor * strict.batch * factor)
        assert grid_diff(grids[2], strict) == 0.0

    def test_refusals_at_different_inverses(self, rng):
        # Point 4 is refused at stage 1 (chi1 = 0).  At point 7 the stage-2
        # eigenfunction g2 phi2 - g1 phi1 chi1^-1 chi2 is exactly 0, so only
        # stage 2 refuses it, in both routes.
        n = 10
        grids = [[gaussian_element(rng, 1) + 2.0 for _ in range(n)]
                 for _ in range(4)]
        chi1, phi1, chi2, phi2 = grids
        chi1[4] = MatrixElement.scalar(0.0)
        for values, x in zip(grids, (1.0, 1.0, 1.0, 0.5)):
            values[7] = MatrixElement.scalar(x)
        p1 = SpectralPoint(1j, GridFunction(1.0, 1e-3, chi1),
                           GridFunction(1.0, 1e-3, phi1))
        p2 = SpectralPoint(2j, GridFunction(1.0, 1e-3, chi2),
                           GridFunction(1.0, 1e-3, phi2))
        chain = DressingChain((p1, p2), random_grid(rng, 1, n))
        stages, masks = masked_n_fold(chain, 2)
        assert np.flatnonzero(~masks[1]).tolist() == [4]
        assert np.flatnonzero(~masks[2]).tolist() == [4, 7]
        assert np.isnan(stages[2][7].data[0, 0].real)
        direct, direct_mask = masked_iterated(chain, 2)
        assert np.flatnonzero(~direct_mask).tolist() == [4, 7]
        diffs = [(a - b).norm() for a, b, ok in
                 zip(stages[2], direct, masks[2]) if ok]
        assert max(diffs) <= 1e-10 * max(1.0, stages[2].sup_norm(masks[2]))

    def test_refusal_found_on_the_retry(self, rng):
        # chi1 is near-singular at grid point 2 and has a non-finite inverse
        # at point 5.  An inverse reports the near-singular points alone, so
        # point 5 is refused only once the identity stands in at point 2.
        chi1 = random_grid(rng, 2).batch.data.copy()
        chi1[2] = np.diag([1.0, 1e-14])
        chi1[5] = 1e-310 * np.eye(2)
        with pytest.raises(NearSingularError) as first:
            MatrixElement(chi1).inv()
        retry = chi1.copy()
        retry[2] = np.eye(2)
        with pytest.raises(NearSingularError) as second:
            MatrixElement(retry).inv()
        assert (first.value.indices, second.value.indices) == ((2,), (5,))
        p1 = SpectralPoint(1j, GridFunction(1.0, 1e-3, MatrixElement(chi1)),
                           random_grid(rng, 2))
        chain = DressingChain((p1, random_point(rng, 2j)), random_grid(rng, 2))
        stages, masks = masked_n_fold(chain, 2)
        assert [np.flatnonzero(~m).tolist() for m in masks] \
            == [[], [2, 5], [2, 5]]
        direct, direct_mask = masked_iterated(chain, 2)
        assert np.flatnonzero(~direct_mask).tolist() == [2, 5]
        diffs = [(a - b).norm() for a, b, ok in
                 zip(stages[2], direct, masks[2]) if ok]
        assert max(diffs) <= 1e-10 * max(1.0, stages[2].sup_norm(masks[2]))

    def test_non_finite_dressed_points_are_masked(self, rng):
        # At grid point 6, phi of the first point is 1e200: every inverse is
        # accepted, but phi chi^-1 v phi chi^-1 overflows.  No refusal
        # names the point, yet both routes mask it from stage 1 on.
        n = 10
        phi1 = random_grid(rng, 1, n).batch.data.copy()
        phi1[6] = 1e200
        p1 = SpectralPoint(1j, random_grid(rng, 1, n),
                           GridFunction(1.0, 1e-3, MatrixElement(phi1)))
        chain = DressingChain((p1, random_point(rng, 2j, d=1, n=n)),
                              random_grid(rng, 1, n))
        with np.errstate(over="ignore", invalid="ignore"):
            stages, masks = masked_n_fold(chain, 2)
            direct, direct_mask = masked_iterated(chain, 2)
        assert not np.isfinite(stages[1].batch.data[6]).all()
        assert [np.flatnonzero(~m).tolist() for m in masks] \
            == [[], [6], [6]]
        assert np.flatnonzero(~direct_mask).tolist() == [6]
        diffs = [(a - b).norm() for a, b, ok in
                 zip(stages[2], direct, masks[2]) if ok]
        assert max(diffs) <= 1e-10 * max(1.0, stages[2].sup_norm(masks[2]))


class TestMaskedStages:
    """Masks above N = 2: a stage masks the grid points that any pivot it
    needs refuses, and keeps the bits of the unmasked route elsewhere."""

    GAMMAS = (1j, 2j, 3j, 0.5 - 0.5j)

    def _chain(self, rng, n=10):
        # At grid points 3, 6 and 8 the first eigenfunctions are multiples
        # of the 2x2 identity, chosen so that one pivot there is exactly 0.
        # At 3, chi pivot 2: the third column (-3, 21i, 27) of the leading
        # 3x3 chi array is 5 (1, i, -1) - 8 (1, -2i, -4), so stage 3 is
        # the first to mask it.  At 6, phi pivot 1:
        # g1 chi1 - g0 chi0 phi0^-1 phi1 = 2i - i 2, masked from stage 3.
        # At 8, phi pivot 0, phi0 itself, masked from stage 2.
        scalars = {3: ((1, 1), (1, -1), (-3, 7)),
                   6: ((1, 1), (1, 2)),
                   8: ((1, 0),)}
        points = []
        for j, gamma in enumerate(self.GAMMAS):
            chi, phi = (random_grid(rng, 2, n).batch.data.copy()
                        for _ in range(2))
            for k, values in scalars.items():
                if j < len(values):
                    chi[k], phi[k] = (x * np.eye(2) for x in values[j])
            points.append(SpectralPoint(
                gamma, GridFunction(1.0, 1e-3, MatrixElement(chi)),
                GridFunction(1.0, 1e-3, MatrixElement(phi))))
        return DressingChain(tuple(points), random_grid(rng, 2, n))

    @pytest.mark.parametrize("n", [3, 4])
    def test_masks_and_kept_bits(self, rng, n):
        chain = self._chain(rng)
        grids, masks = masked_n_fold(chain, n)
        masked = [[], [], [8], [3, 6, 8], [3, 6, 8]][:n + 1]
        assert [np.flatnonzero(~m).tolist() for m in masks] == masked
        for k in range(1, n + 1):
            keep = masks[k]
            gone = grids[k].batch.data[~keep]
            assert np.isnan(gone.real).all() and np.isnan(gone.imag).all()
            assert grids[k].batch.data[keep].tobytes() \
                == n_fold(take(chain, keep), k).batch.data.tobytes()
