import warnings

import numpy as np
import pytest

from ncpain import laxpair
from ncpain.integrators import rk4_step
from ncpain.ring import (MatrixElement, NearSingularError, _certified_inverse,
                         anticommutator, random_invertible)
from ncpain.grid import GridFunction
from ncpain.moyal import MoyalPolynomial
from ncpain.quasidet import BlockMatrix
from ncpain.solutions import seed_constant, seed_jets
from ncpain.laxpair import (STENCIL_BLOCK, PiiState, SymState, build_A,
                            build_B, build_L, build_P, first_integral,
                            first_integral_drift, integrate_symmetric,
                            lax_residual_symmetric, normalize_first_integral,
                            pii_residual_exact, pii_residual_grid,
                            reduction_check, symmetric_rhs,
                            zero_curvature_residual)

from conftest import gaussian_element

LAMBDAS = (1.0 + 0j, 1j, 2 - 3j)


def pii_from_zero_curvature(residual):
    """The equation residual, from entry (0, 1) of the curvature."""
    return 1j * residual.entry(0, 1)


def full_lax_residual(s, field_ts):
    """The literal L_t - (P L - L P) of the 6x6 matrices, with L_t built
    from the field derivatives ``field_ts``."""
    zero = s.v0.zero_like()
    rows = [[zero] * 6 for _ in range(6)]
    for b, field_t in enumerate(field_ts):
        rows[2 * b + 1][2 * b] = -field_t
    ell, pee = build_L(s), build_P(s)
    return BlockMatrix(rows) - (pee @ ell - ell @ pee)


def random_pii_state(rng, d, lam=1j):
    return PiiState(
        v=gaussian_element(rng, d),
        v_z=gaussian_element(rng, d),
        v_zz=gaussian_element(rng, d),
        z=complex(rng.standard_normal(), rng.standard_normal()),
        lam=lam,
        C=complex(rng.standard_normal(), rng.standard_normal()),
    )


def rational_state(d, z, lam, sign=1):
    v, v_z, v_zz = seed_jets(sign, np.array([z]), d)
    return PiiState(v, v_z, v_zz, z=z, lam=lam, C=seed_constant(sign))


class TestSpectralMatrices:
    def test_A_entries_scalar_case(self):
        # v = 1, v_z = 1, z = 0, lam = 1, C = 4, from the printed entries
        s = PiiState(MatrixElement.scalar(1), MatrixElement.scalar(1),
                     MatrixElement.scalar(0), z=0.0, lam=1.0, C=4.0)
        a = build_A(s)
        assert a.entry(0, 0).allclose(MatrixElement.scalar(9j))
        assert a.entry(0, 1).allclose(MatrixElement.scalar(-3 - 1j))
        assert a.entry(1, 0).allclose(MatrixElement.scalar(-3 + 1j))
        assert a.entry(1, 1).allclose(MatrixElement.scalar(-9j))

    def test_A_zero_field(self):
        zero = MatrixElement.zeros(2)
        s = PiiState(zero, zero, zero, z=0.5, lam=2.0, C=0.0)
        a = build_A(s)
        expected = (8j * 4 - 1j) * MatrixElement.eye(2)
        assert a.entry(0, 0).allclose(expected)
        assert a.entry(0, 1).norm() == 0.0

    def test_A_is_tracefree(self, rng):
        s = random_pii_state(rng, 3)
        a = build_A(s)
        assert (a.entry(0, 0) + a.entry(1, 1)).norm() == 0.0

    def test_A_requires_nonzero_lambda(self, rng):
        s = random_pii_state(rng, 2, lam=0.0)
        with pytest.raises(ValueError):
            build_A(s)

    def test_B_zero_field(self):
        b = build_B(MatrixElement.zeros(2), 0.5)
        assert b.entry(0, 0).allclose(-1j * MatrixElement.eye(2))
        assert b.entry(1, 1).allclose(1j * MatrixElement.eye(2))

    def test_B_offdiagonal_symmetric(self, rng):
        v = gaussian_element(rng, 2)
        b = build_B(v, 1.3)
        assert b.entry(0, 1).allclose(b.entry(1, 0))

    def test_B_at_lambda_i(self):
        one = MatrixElement.eye(2)
        b = build_B(one, 1j)
        assert b.entry(0, 0).allclose(2 * one)
        assert b.entry(1, 1).allclose(-2 * one)


class TestZeroCurvature:
    def test_diagonal_entries_vanish(self, rng):
        for d in (1, 2, 3, 4):
            s = random_pii_state(rng, d)
            res = zero_curvature_residual(s)
            scale = max(1.0, build_A(s).norm() * build_B(s.v, s.lam).norm())
            assert res.entry(0, 0).norm() <= 1e-12 * scale
            assert res.entry(1, 1).norm() <= 1e-12 * scale

    def test_offdiagonal_entries_carry_the_equation(self, rng):
        for d in (1, 2, 3):
            s = random_pii_state(rng, d)
            res = zero_curvature_residual(s)
            pii = pii_residual_exact(s.v, s.v_zz, s.z, s.C)
            scale = max(1.0, build_A(s).norm() * build_B(s.v, s.lam).norm())
            assert (res.entry(0, 1) + 1j * pii).norm() <= 1e-12 * scale
            assert (res.entry(1, 0) - 1j * pii).norm() <= 1e-12 * scale

    def test_lambda_independence(self, rng):
        base = random_pii_state(rng, 3)
        extracted = []
        for lam in LAMBDAS:
            s = PiiState(base.v, base.v_z, base.v_zz, base.z, lam, base.C)
            extracted.append(pii_from_zero_curvature(
                zero_curvature_residual(s)))
        scale = max(1.0, extracted[0].norm())
        for other in extracted[1:]:
            assert (extracted[0] - other).norm() <= 1e-12 * scale

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rational_seed_exact(self, sign):
        for d in (1, 2):
            for lam in LAMBDAS:
                s = rational_state(d, 1.37, lam, sign)
                res = zero_curvature_residual(s)
                assert res.norm() <= 1e-12


class TestPiiResidual:
    def test_zero_solves_homogeneous(self):
        zero = MatrixElement.zeros(2)
        assert pii_residual_exact(zero, zero, 0.8, 0.0).norm() == 0.0

    @pytest.mark.parametrize("sign,c_val", [(1, 4.0), (-1, -4.0)])
    def test_rational_solution_exact(self, sign, c_val):
        z = np.array([1.0, 1.31, 2.0])
        v, _, v_zz = seed_jets(sign, z, 2)
        res = pii_residual_exact(v, v_zz, z, c_val)
        assert res.point_norms().max() <= 1e-14

    def test_grid_residual_of_rational_seed(self):
        v, _, _ = seed_jets(1, 1.0 + 1e-3 * np.arange(1001), 1)
        res = pii_residual_grid(GridFunction(1.0, 1e-3, v), 4.0)
        # stencil error ~ v'''' h^2 / 12 = 2 h^2 / z^5, about 2e-6 at z = 1
        assert res.sup_norm() <= 1e-5
        assert res.sup_norm() >= 1e-8

    def test_grid_residual_matches_pointwise_exactly(self, rng):
        # Longer than two evaluation blocks, so block edges are covered.
        n = 2 * STENCIL_BLOCK + 7
        f = GridFunction(1.3, 1e-3, [gaussian_element(rng, 2)
                                     for _ in range(n)])
        res = pii_residual_grid(f, 4.0)
        inv_h2 = 1.0 / (f.h * f.h)
        assert len(res) == n - 2
        for k in range(1, n - 1):
            v_zz = (f[k - 1] - 2 * f[k] + f[k + 1]) * inv_h2
            expected = pii_residual_exact(f[k], v_zz, f.z(k), 4.0)
            assert np.array_equal(res[k - 1].data, expected.data)

    def test_grid_too_short(self):
        one = MatrixElement.eye(1)
        f = GridFunction.sample(lambda z: one, 1.0, 0.1, 4)
        with pytest.raises(ValueError):
            pii_residual_grid(f, 0.0)

    def test_anticommutator_route_matches_scalar_z(self, rng):
        v = gaussian_element(rng, 3)
        z = 0.9
        direct = anticommutator(z * v.one_like(), v)
        assert direct.allclose((2 * z) * v)


class TestSymmetricSystem:
    def test_rhs_fixed_point(self, rng):
        v = gaussian_element(rng, 2)
        s = SymState(v, v, v.zero_like(), 0.0, 0.0)
        assert all(r.norm() == 0.0 for r in symmetric_rhs(s))

    def test_rhs_frozen_scalars(self):
        s = SymState(MatrixElement.scalar(1), MatrixElement.scalar(2),
                     MatrixElement.scalar(3), 0.0, 0.0)
        d0, d1, d2 = symmetric_rhs(s)
        assert d0.allclose(MatrixElement.scalar(6))
        assert d1.allclose(MatrixElement.scalar(-12))
        assert d2.allclose(MatrixElement.scalar(1))

    def test_first_integral_derivative_identity(self, rng):
        for d in (1, 2, 3):
            s = SymState(gaussian_element(rng, d), gaussian_element(rng, d),
                         gaussian_element(rng, d),
                         complex(rng.standard_normal()),
                         complex(rng.standard_normal()))
            d0, d1, d2 = symmetric_rhs(s)
            lhs = d0 + d1 + s.v2 * d2 + d2 * s.v2
            rhs = (s.alpha0 + s.alpha1) * s.v0.one_like()
            assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())

    def test_L_P_frozen_blocks(self):
        one = MatrixElement.eye(2)
        s = SymState(one, one, one, 0.0, 0.0)
        ell = build_L(s)
        pee = build_P(s)
        # rho1 = rho2 = -1, sigma = 2
        assert pee.entry(0, 0).allclose(-one)
        assert pee.entry(2, 2).allclose(one)
        assert pee.entry(5, 4).allclose(-one)
        assert ell.entry(1, 0).allclose(-one)
        # off-diagonal 2x2 blocks are zero
        for i in range(6):
            for j in range(6):
                if i // 2 != j // 2:
                    assert ell.entry(i, j).norm() == 0.0
                    assert pee.entry(i, j).norm() == 0.0

    def test_L_blocks_are_involutions(self, rng):
        s = SymState(gaussian_element(rng, 2), gaussian_element(rng, 2),
                     gaussian_element(rng, 2), 0.3, -0.4)
        ell = build_L(s)
        sq = ell @ ell
        assert sq.allclose(ell.identity_like())

    def test_lax_residual_vanishes_random(self, rng):
        from ncpain.ring import random_invertible
        for d in (1, 2, 3):
            s = SymState(random_invertible(rng, d), random_invertible(rng, d),
                         gaussian_element(rng, d),
                         complex(rng.standard_normal(),
                                 rng.standard_normal()),
                         complex(rng.standard_normal(),
                                 rng.standard_normal()))
            res = lax_residual_symmetric(s)
            scale = max(1.0, build_L(s).norm() * build_P(s).norm())
            assert res.norm() <= 1e-12 * scale

    @pytest.mark.parametrize("field", ["v0", "v1"])
    def test_refused_inverse_names_the_field(self, rng, field):
        fields = {k: random_invertible(rng, 2) for k in ("v0", "v1", "v2")}
        fields[field] = MatrixElement([[1, 0], [0, 0]])
        s = SymState(**fields, alpha0=0.5, alpha1=1.5)
        with pytest.raises(NearSingularError) as err:
            lax_residual_symmetric(s)
        assert str(err.value) == ("matrix is near-singular (condition ~ inf) "
                                  f"[{field}]")
        assert err.value.indices is None
        assert str(err.value.__cause__) == ("matrix is near-singular "
                                            "(condition ~ inf)")

    def test_lax_residual_frozen_scalars(self):
        s = SymState(MatrixElement.scalar(1), MatrixElement.scalar(2),
                     MatrixElement.scalar(3), 1.0, 1.0)
        assert lax_residual_symmetric(s).norm() <= 1e-14

    def test_lax_residual_fixed_point_both_sides_zero(self):
        one = MatrixElement.eye(2)
        s = SymState(one, one, one.zero_like(), 0.0, 0.0)
        ell = build_L(s)
        pee = build_P(s)
        assert (pee @ ell - ell @ pee).norm() <= 1e-14
        assert lax_residual_symmetric(s).norm() <= 1e-14

    def test_perturbation_sensitivity_is_linear(self, rng):
        s = SymState(MatrixElement.scalar(1.0), MatrixElement.scalar(2.0),
                     MatrixElement.scalar(3.0), 1.0, 1.0)
        d0, d1, d2 = symmetric_rhs(s)
        for eps in (1e-3, 1e-6):
            perturbed = (d0 + eps * d0.one_like(), d1, d2)
            res = full_lax_residual(s, perturbed)
            assert res.norm() == pytest.approx(eps, rel=1e-9)

    @pytest.mark.parametrize("batch", [None, 4], ids=["single", "batched"])
    def test_block_wise_residual_is_the_full_matrix_one(self, rng, batch):
        # The residual from the three 2x2 blocks against the literal
        # L_t - (P L - L P) of the 6x6 matrices, bit for bit.
        for d in (1, 2, 3):
            shape = (d, d) if batch is None else (batch, d, d)
            v0, v1 = (MatrixElement(rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
                      for _ in range(2))
            s = SymState(v0, v1, gaussian_element(rng, d), 0.3 - 0.2j, 1.1)
            full = full_lax_residual(s, symmetric_rhs(s))
            res = lax_residual_symmetric(s)
            for i in range(6):
                for j in range(6):
                    got, want = (np.broadcast_to(m.entry(i, j).data, shape)
                                 for m in (res, full))
                    assert got.tobytes() == want.tobytes()


def star_poly(rng, degree, theta=0.3, cap=16):
    return MoyalPolynomial(
        {(m, n): complex(*rng.standard_normal(2))
         for m in range(degree + 1) for n in range(degree + 1 - m)},
        theta, cap)


class TestOverStarPolynomials:
    """Criteria 1 and 5 with MoyalPolynomial fields in place of matrices."""

    def test_zero_curvature_identities(self, rng):
        v, v_z, v_zz = (star_poly(rng, 3) for _ in range(3))
        z, c_val = 0.4 + 0.2j, 0.7 - 0.1j
        pii = pii_residual_exact(v, v_zz, z, c_val)
        for lam in LAMBDAS:
            s = PiiState(v, v_z, v_zz, z, lam, c_val)
            res = zero_curvature_residual(s)
            scale = max(1.0, build_A(s).norm() * build_B(v, lam).norm())
            assert res.entry(0, 0).norm() <= 1e-12 * scale
            assert res.entry(1, 1).norm() <= 1e-12 * scale
            assert (res.entry(0, 1) + 1j * pii).norm() <= 1e-12 * scale
            assert (res.entry(1, 0) - 1j * pii).norm() <= 1e-12 * scale

    def test_symmetric_lax_residual_is_the_inverse_tail(self, rng):
        # build_P takes star inverses, which are truncated series; the
        # residual's v0 and v1 entries are (alpha/2)(v^-1 v - 1 + v v^-1 - 1),
        # so the measured tails bound it, plus rounding.
        v = 2 + 0.05 * star_poly(rng, 3)
        s = SymState(v, v, star_poly(rng, 3), 0.5, 1.5)
        one, v_inv = v.one_like(), v.inv()
        tail = (v_inv * v - one).norm() + (v * v_inv - one).norm()
        res = lax_residual_symmetric(s)
        scale = max(1.0, build_L(s).norm() * build_P(s).norm())
        assert res.norm() <= 0.5 * (abs(s.alpha0) + abs(s.alpha1)) * tail \
            + 1e-12 * scale


class TestFlow:
    def test_fixed_point_constant(self):
        one = MatrixElement.eye(2)
        s0 = SymState(one, one, one.zero_like(), 0.0, 0.0)
        flow = integrate_symmetric(s0, 0.5, 1e-2)
        assert not flow.truncated
        for s in flow.states:
            assert (s.v0 - one).norm() <= 1e-14
            assert s.v2.norm() <= 1e-14

    def test_first_integral_drift(self):
        s0 = SymState(MatrixElement.scalar(1.0), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(1.0), 1.0, 1.0)
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        assert not flow.truncated
        f0 = first_integral(flow.states[0])
        drift = max((first_integral(s) - f0).norm() for s in flow.states)
        assert drift <= 1e-8

    def test_fourth_order_convergence(self):
        s0 = SymState(MatrixElement.scalar(0.4), MatrixElement.scalar(-0.3),
                      MatrixElement.scalar(0.2), 0.7, 1.3)

        def endpoint(h):
            return integrate_symmetric(s0, 1.0, h).states[-1].v2

        ref = endpoint(1.25e-4)
        e_coarse = (endpoint(2e-3) - ref).norm()
        e_fine = (endpoint(1e-3) - ref).norm()
        assert 12.0 <= e_coarse / e_fine <= 20.0

    def test_near_singular_truncation(self):
        s0 = SymState(MatrixElement.scalar(-0.05), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.0), 1.0, 0.0)
        flow = integrate_symmetric(s0, 1.0, 1e-3, min_condition=1e-2)
        assert flow.truncated
        assert "v0" in flow.reason
        assert len(flow.states) < 1001

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_plain_numpy_rk4_bit_for_bit(self, d):
        # The same RK4 on bare complex128 arrays, in the same order of
        # operations as symmetric_rhs and rk4_step (a scalar c times an
        # element is complex(c) times its array).
        rng = np.random.default_rng(7 + d)
        y0 = tuple(random_invertible(rng, d, scale=0.5) for _ in range(3))
        alpha0, alpha1, h, steps = 0.5 - 0.25j, 1.5, 0.01, 50
        flow = integrate_symmetric(SymState(*y0, alpha0, alpha1), steps * h,
                                   h)
        eye = np.eye(d, dtype=complex)

        def rhs(v0, v1, v2):
            return (v2 @ v0 + v0 @ v2 + complex(alpha0) * eye,
                    -(v2 @ v1 + v1 @ v2) + complex(alpha1) * eye,
                    v1 - v0)

        def axpy(y, k, c):
            return tuple(yi + complex(c) * ki for yi, ki in zip(y, k))

        y = tuple(el.data for el in y0)
        expected = [y]
        for _ in range(steps):
            k1 = rhs(*y)
            k2 = rhs(*axpy(y, k1, h / 2))
            k3 = rhs(*axpy(y, k2, h / 2))
            k4 = rhs(*axpy(y, k3, h))
            two = complex(2)
            y = tuple(yi + complex(h / 6) * (a + two * b + two * c + e)
                      for yi, a, b, c, e in zip(y, k1, k2, k3, k4))
            expected.append(y)

        assert not flow.truncated and len(flow.states) == steps + 1
        for s, fields in zip(flow.states, expected):
            for el, arr in zip((s.v0, s.v1, s.v2), fields):
                assert el.data.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("truncated", [False, True])
    def test_batched_drift_is_the_per_state_maximum(self, truncated):
        if truncated:
            s0 = SymState(MatrixElement.scalar(-0.05),
                          MatrixElement.scalar(1.0),
                          MatrixElement.scalar(0.0), 1.0, 0.0)
            flow = integrate_symmetric(s0, 1.0, 1e-3, min_condition=1e-2)
        else:
            rng = np.random.default_rng(3)
            s0 = SymState(*(random_invertible(rng, 3, scale=0.5)
                            for _ in range(3)), 0.5 - 0.1j, 1.5, 0.2)
            flow = integrate_symmetric(s0, 0.9, 1e-3)
            assert len(flow.states) > STENCIL_BLOCK
        assert flow.truncated == truncated
        f0 = first_integral(flow.states[0])
        expected = max((first_integral(s) - f0).norm() for s in flow.states)
        assert expected > 0.0
        assert first_integral_drift(flow.path) == expected

    @pytest.mark.parametrize("d", [1, 3])
    def test_states_are_the_views_of_the_path(self, d):
        rng = np.random.default_rng(11 + d)
        s0 = SymState(*(random_invertible(rng, d, scale=0.5)
                        for _ in range(3)), 0.5 - 0.1j, 1.5, 0.25)
        flow = integrate_symmetric(s0, 0.75, 1e-2)
        path = flow.path
        assert path.v0.data.shape == (51, d, d)
        assert path.v0.data.base is path.v2.data.base
        assert path.v0.data.base.shape == (51, 3, d, d)
        # Reading the path builds no list of per-state elements.
        first_integral_drift(path)
        assert "states" not in vars(flow)
        assert len(flow.states) == len(path.t) == 51
        for i, s in enumerate(flow.states):
            assert (s.alpha0, s.alpha1) == (s0.alpha0, s0.alpha1)
            assert type(s.t) is float and s.t == s0.t + i * 1e-2
            assert s.t == path.t[i]
            for el, batch in zip((s.v0, s.v1, s.v2),
                                 (path.v0, path.v1, path.v2)):
                assert el.data.shape == (d, d)
                assert el.data.tobytes() == batch.data[i].tobytes()
                assert np.shares_memory(el.data, batch.data)
        assert flow.states is flow.states

    def test_blowup_truncation(self):
        # steep data drives v2 into a finite-time pole
        s0 = normalize_first_integral(
            SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                     MatrixElement.scalar(-3.0), 0.5, 1.5))
        # The steps computed past the refused state overflow; no warning
        # about it may reach the caller, whatever the caller's error state.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow = integrate_symmetric(s0, 2.0, 1e-3)
        assert flow.truncated
        assert flow.reason == "v0 is no longer finite at t = 0.336"


def per_step_flow(s0, t_end, h, min_condition=1e-12):
    """The flow with a monitor check after every single RK4 step."""
    def rhs(t, y):
        return symmetric_rhs(SymState(*y, s0.alpha0, s0.alpha1, t))

    y = (s0.v0, s0.v1, s0.v2)
    states = [y]
    for i in range(round((t_end - s0.t) / h)):
        t = s0.t + i * h
        y = rk4_step(rhs, t, y, h)
        extremes = [el.singular_extremes() for el in y]
        for name, (smin, smax) in zip(("v0", "v1", "v2"), extremes):
            if not smax < 1e100:
                return states, f"{name} is no longer finite at t = {t + h:.6g}"
        for name, (smin, smax) in zip(("v0", "v1"), extremes):
            margin = smin / max(smax, 1.0)
            if margin < min_condition:
                return states, (f"{name} is near-singular at t = {t + h:.6g} "
                                f"(margin {margin:.3e})")
        states.append(y)
    return states, None


def _scalar_state(v0, v1, v2, alpha0, alpha1):
    return SymState(*map(MatrixElement.scalar, (v0, v1, v2)), alpha0, alpha1)


NEAR_SINGULAR = _scalar_state(-0.05, 1.0, 0.0, 1.0, 0.0)
STEEP = _scalar_state(5.0, 1.0, -300.0, 0.5, 1.5)


def _cli_random_state(d, seed):
    """The data of `ncpain symmetric --random-matrix d --seed seed
    --alpha0 0.5 --alpha1 1.5`."""
    rng = np.random.default_rng(seed)
    return SymState(*(random_invertible(rng, d, scale=0.5)
                      for _ in range(3)), 0.5, 1.5)


class TestBlockMonitor:
    # (start, t_end, h, min_condition, index of the refused step or None);
    # the comments place the refused step among blocks of 64 steps.
    CASES = {
        # block 0 of 16
        "first-block": (NEAR_SINGULAR, 1.0, 1e-3, 1e-2, 40),
        # 3 * 64 + 32
        "mid-block": (NEAR_SINGULAR, 1.0, 1 / 5600, 1e-2, 224),
        # 210 steps: the last block holds steps 192-209
        "final-partial-block": (NEAR_SINGULAR, 0.042, 2e-4, 1e-2, 200),
        # 201 steps: the last one is refused
        "last-step": (NEAR_SINGULAR, 0.0402, 2e-4, 1e-2, 200),
        # 50 steps, one short block
        "short-run": (STEEP, 0.5, 0.01, 1e-12, 5),
        "short-run-untruncated": (NEAR_SINGULAR, 0.03, 1e-3, 1e-2, None),
        # 300 steps, the last block holds steps 256-299
        "partial-block-untruncated": (NEAR_SINGULAR, 0.03, 1e-4, 1e-2, None),
        # 17 * 64 + 43, v1 near-singular
        "random-3x3": (_cli_random_state(3, 5), 12.0, 0.01, 1e-12, 1131),
        # Several checks fail at once; the first in the order of the
        # reasons wins: v0, v1, v2 not finite, then the margins of v0, v1.
        "v1-not-finite": (_scalar_state(0.0, 2e100, 0.0, 0.0, 0.0),
                          1.0, 0.01, 1e-12, 0),
        "v2-not-finite": (_scalar_state(0.0, 0.0, 2e100, 0.0, 0.0),
                          1.0, 0.01, 1e-12, 0),
        "v2-below-the-bound": (_scalar_state(0.0, 0.0, 5e99, 0.0, 0.0),
                               1.0, 0.01, 1e-12, 0),
        "v1-margin": (_scalar_state(1.0, 0.0, 0.0, 0.0, 0.0),
                      1.0, 0.01, 1e-12, 0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_a_check_after_every_step(self, case):
        s0, t_end, h, min_condition, refused = self.CASES[case]
        steps = round(t_end / h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow = integrate_symmetric(s0, t_end, h, min_condition)
        with np.errstate(over="ignore", invalid="ignore"):
            expected, reason = per_step_flow(s0, t_end, h, min_condition)
        assert flow.reason == reason
        assert flow.truncated == (reason is not None)
        assert len(flow.states) == len(expected) == (
            steps + 1 if refused is None else refused + 1)
        for i, (s, fields) in enumerate(zip(flow.states, expected)):
            assert s.t == s0.t + i * h
            for el, ref in zip((s.v0, s.v1, s.v2), fields):
                assert el.data.tobytes() == ref.data.tobytes()


class TestCertifiedMonitor:
    """A block passes the monitor on its norms and the inverses of v0 and
    v1 when they certify it; the SVD runs only on the other blocks.  The
    reference is the same flow with every block sent to the SVD."""

    @pytest.mark.parametrize("min_condition", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_svd_monitor(self, d, min_condition, monkeypatch):
        starts = []
        for seed in range(8):
            rng = np.random.default_rng([seed, d])
            starts.append(SymState(*(random_invertible(rng, d, scale=0.5)
                                     for _ in range(3)), 0.5 - 0.2j, 1.5))
        # A small but well-conditioned v0 that stays small (alpha0 = 0):
        # its margin saturates, as smin / max(smax, 1), and is refused at
        # 1e-3.
        starts.append(SymState(1e-4 * starts[0].v0, starts[0].v1,
                               starts[0].v2, 0.0, 1.5))
        passed = []

        def spy(data, floor, saturate=False):
            inverse, certified = _certified_inverse(data, floor, saturate)
            passed.append(bool(certified.all()))
            return inverse, certified

        def nothing_certified(data, floor, saturate=False):
            return None, np.zeros(data.shape[:-2], dtype=bool)

        flows, references = [], []
        for patch, out in ((spy, flows), (nothing_certified, references)):
            monkeypatch.setattr(laxpair, "_certified_inverse", patch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out.extend(integrate_symmetric(s0, 4.0, 0.01, min_condition)
                           for s0 in starts)
        for flow, ref in zip(flows, references):
            assert flow.reason == ref.reason
            assert len(flow.path.t) == len(ref.path.t)
            for name in ("v0", "v1", "v2"):
                assert getattr(flow.path, name).data.tobytes() \
                    == getattr(ref.path, name).data.tobytes()
        # Most blocks pass on the certificate.  A truncation comes from the
        # SVD: seed 2 is truncated at d = 3 (not finite, then near-singular
        # at 1e-12 and 1e-3) and at d = 2 with min_condition 1e-3.
        assert passed.count(True) >= 0.8 * len(passed)
        assert flows[2].truncated == (d == 3 or min_condition == 1e-3)
        assert flows[-1].truncated == (min_condition == 1e-3)


class TestReduction:
    def _normalized_flow(self, v0=0.1, v2=0.3, alpha0=0.5, alpha1=1.5):
        s0 = normalize_first_integral(
            SymState(MatrixElement.scalar(v0), MatrixElement.scalar(1.0),
                     MatrixElement.scalar(v2), alpha0, alpha1, 0.0))
        return integrate_symmetric(s0, 1.0, 1e-3)

    def test_normalized_scalar_trajectory(self):
        flow = self._normalized_flow()
        assert not flow.truncated
        residual = reduction_check(flow.path)
        assert residual.sup_norm() <= 1e-5

    def test_normalized_matrix_trajectory(self):
        v0 = MatrixElement([[0.12, 0.03], [0.0, 0.18]])
        v2 = MatrixElement([[0.25, 0.1], [-0.05, 0.3]])
        s0 = normalize_first_integral(
            SymState(v0, MatrixElement.eye(2), v2, 0.5, 1.5, 0.0))
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        assert not flow.truncated
        assert reduction_check(flow.path).sup_norm() <= 1e-5

    def test_unnormalized_control_does_not_vanish(self):
        s0 = SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.3), 0.5, 1.5, 0.0)
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        normalized = self._normalized_flow()
        bad = reduction_check(flow.path).sup_norm()
        good = reduction_check(normalized.path).sup_norm()
        assert bad > 1e3 * good

    def test_constant_shift_knob_compensates(self):
        # first integral = k != 0 solves the equation in z = t + k/2
        s0 = SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.3), 0.5, 1.5, 0.0)
        k = complex(first_integral(s0).data[0, 0]).real
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        path = flow.path
        shifted = GridFunction(path.t[0] + k / 2, 1e-3, path.v2)
        residual = pii_residual_grid(shifted, path.alpha1 - path.alpha0)
        assert residual.sup_norm() <= 1e-5

    def test_alpha_sum_precondition(self):
        s0 = SymState(MatrixElement.scalar(1.0), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.0), 0.0, 0.0, 0.0)
        flow = integrate_symmetric(s0, 0.1, 1e-3)
        with pytest.raises(ValueError):
            reduction_check(flow.path)


class TestBacklund:
    """Algebraic Backlund images of a normalized symmetric flow.

    With the first integral zero and alpha0 + alpha1 = 2, the flow gives
    v2' - v2^2 + 2t = 2 v1 and v2' + v2^2 - 2t = -2 v0, so
    -v2 + alpha1 v1^-1 solves P-II at C + 4 and -v2 - alpha0 v0^-1 at
    C - 4, where C = alpha1 - alpha0 (Noumi, Painleve Equations through
    Symmetry).  These targets hold for genuinely noncommutative data, and
    no code path builds them from the flow's own reduction.
    """

    # (d, alpha0, seed of the random invertible data)
    CASES = {"2x2-real": (2, 0.7, 1), "2x2-complex": (2, 0.4 + 0.2j, 3),
             "3x3-real": (3, 1.3, 4), "3x3-complex": (3, 0.5 - 0.3j, 2)}

    @staticmethod
    def flow(d, alpha0, seed, h):
        """The flow on [0, 0.5] as one batched SymState, and its images."""
        alpha1 = 2.0 - alpha0
        rng = np.random.default_rng(seed)
        s0 = normalize_first_integral(SymState(
            *(random_invertible(rng, d, scale=0.5) for _ in range(3)),
            alpha0, alpha1))
        flow = integrate_symmetric(s0, 0.5, h)
        assert not flow.truncated
        v0, v1, v2 = flow.path.v0, flow.path.v1, flow.path.v2
        images = {"plus": -v2 + alpha1 * v1.inv(),
                  "minus": -v2 - alpha0 * v0.inv(),
                  # the wrong pairing: alpha1 with v0
                  "wrong": -v2 + alpha1 * v0.inv()}
        return SymState(v0, v1, v2, alpha0, alpha1), images

    @pytest.mark.parametrize("case", CASES)
    def test_images_solve_pii_at_shifted_c(self, case):
        d, alpha0, seed = self.CASES[case]
        c = (2.0 - alpha0) - alpha0
        targets = {"plus": c + 4, "minus": c - 4, "wrong": c + 4}
        sups = {name: [] for name in targets}
        for h in (2e-3, 1e-3, 5e-4):
            _, images = self.flow(d, alpha0, seed, h)
            for name, image in images.items():
                grid = GridFunction(0.0, h, image)
                sups[name].append(
                    pii_residual_grid(grid, targets[name]).sup_norm())
        # O(h^2) of the centred stencil: a ratio of 4 per halving of h.
        for name in ("plus", "minus"):
            coarse, mid, fine = sups[name]
            assert 3.5 <= coarse / mid <= 4.5
            assert 3.5 <= mid / fine <= 4.5
        coarse, _, fine = sups["wrong"]
        assert 0.9 <= coarse / fine <= 1.1
        assert fine > 100 * max(sups["plus"][-1], sups["minus"][-1])

    @pytest.mark.parametrize("case", CASES)
    def test_images_are_v2_plus_twice_rho(self, case):
        batch, images = self.flow(*self.CASES[case], h=2e-3)
        pee = build_P(batch)
        rho1, rho2 = pee.entry(0, 0), pee.entry(3, 3)
        for image, rho in ((images["minus"], rho1), (images["plus"], rho2)):
            diff = (batch.v2 + 2 * rho - image).point_norms()
            scale = batch.v2.point_norms() + image.point_norms()
            assert np.all(diff <= 1e-13 * scale)


class TestDifferentialBacklund:
    """The differential Backlund maps on matrix solutions of P-II.

    For any solution v of v'' = 2 v^3 - 4 z v + C with C central,
    v+ = -v + (C + 2) (v' - v^2 + 2z)^-1 solves P-II at C + 4 and
    v- = -v + (2 - C) (v' + v^2 - 2z)^-1 at C - 4.  The solution comes
    from scipy's DOP853, independent of this package's integrators, and
    the images are scored with the centred stencil of pii_residual_grid.
    """

    H = 5e-4     # the finest grid; the coarser ones take every 2nd, 4th
    Z_END = 0.5
    IMAGE_BOUND = 20.0

    def solution(self, d, c, rng):
        """(z, v, v') on [0, Z_END], from random complex data whose two
        images stay below IMAGE_BOUND there (a pole would hide the order
        of the stencil)."""
        integrate = pytest.importorskip("scipy.integrate")
        zs = self.H * np.arange(round(self.Z_END / self.H) + 1)
        eye = np.eye(d)

        def rhs(z, y):
            v, w = y.reshape(2, d, d)
            return np.concatenate([w, 2 * v @ v @ v - 4 * z * v + c * eye],
                                  axis=None)

        while True:
            y0 = 0.5 * (rng.standard_normal(2 * d * d)
                        + 1j * rng.standard_normal(2 * d * d))
            sol = integrate.solve_ivp(rhs, (0.0, zs[-1]), y0,
                                      method="DOP853", rtol=1e-13,
                                      atol=1e-13, t_eval=zs)
            assert sol.success
            v, w = (MatrixElement(f) for f in
                    sol.y.T.reshape(len(zs), 2, d, d).swapaxes(0, 1))
            z = MatrixElement.scalars(zs, d)
            images = self.images(v, w, z, c, 2.0)
            if max(im.point_norms().max() for im in images) < \
                    self.IMAGE_BOUND:
                return v, w, z

    @staticmethod
    def images(v, w, z, c, two):
        return (-v + (c + two) * (w - v * v + 2 * z).inv(),
                -v + (two - c) * (w + v * v - 2 * z).inv())

    def sups(self, image, target):
        """Residual sup norms at h = 4H, 2H and H."""
        return [pii_residual_grid(GridFunction(
            0.0, step * self.H, MatrixElement(image.data[::step])),
            target).sup_norm() for step in (4, 2, 1)]

    @pytest.mark.parametrize("c", [0.7, -1.3 + 0.4j], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_images_solve_pii_at_c_plus_minus_four(self, d, c):
        v, w, z = self.solution(d, c, np.random.default_rng([d, 17]))
        for image, control, target in zip(self.images(v, w, z, c, 2.0),
                                          self.images(v, w, z, c, 2.1),
                                          (c + 4, c - 4)):
            coarse, mid, fine = self.sups(image, target)
            # O(h^2) of the centred stencil: a ratio of 4 per halving of h.
            assert 3.5 <= coarse / mid <= 4.5
            assert 3.5 <= mid / fine <= 4.5
            # The control, 2.1 in place of 2, converges to nothing.
            coarse, _, flat = self.sups(control, target)
            assert 0.9 <= coarse / flat <= 1.1
            assert flat > 100 * fine


def weyl_s1(s, v0_update=lambda v0, old, new: v0 + old * old - new * new):
    """s1: v2 -> v2 - alpha1 v1^-1, v0 -> v0 + v2^2 - (new v2)^2,
    (alpha0, alpha1) -> (alpha0 + 2 alpha1, -alpha1)."""
    v2 = s.v2 - s.alpha1 * s.v1.inv()
    return SymState(v0_update(s.v0, s.v2, v2), s.v1, v2,
                    s.alpha0 + 2 * s.alpha1, -s.alpha1, s.t)


def weyl_s0(s):
    """s0: v2 -> v2 + alpha0 v0^-1, v1 -> v1 + v2^2 - (new v2)^2,
    (alpha0, alpha1) -> (-alpha0, alpha1 + 2 alpha0)."""
    v2 = s.v2 + s.alpha0 * s.v0.inv()
    return SymState(s.v0, s.v1 + s.v2 * s.v2 - v2 * v2, v2,
                    -s.alpha0, s.alpha1 + 2 * s.alpha0, s.t)


def weyl_pi(s):
    """pi: (v0, v1, v2, alpha0, alpha1) -> (v1, v0, -v2, alpha1, alpha0)."""
    return SymState(s.v1, s.v0, -s.v2, s.alpha1, s.alpha0, s.t)


def wrong_order_s1(s):
    """The control: s1 with v0 + (v2 - new v2)(v2 + new v2), which equals
    v0 + v2^2 - (new v2)^2 only where v2 and its image commute."""
    return weyl_s1(s, lambda v0, old, new: v0 + (old - new) * (old + new))


class TestAffineWeylGroup:
    """The symmetric flow's extended affine Weyl group of type A1 as an
    exact oracle (Noumi, Painleve Equations through Symmetry).

    Each map sends a trajectory onto the trajectory from its own first
    state, so mapping every state of one RK4 path and integrating a second
    path from the mapped first state compares two independent runs: their
    gap is the difference of two O(h^4) errors.  The data are random and
    noncommutative, the alphas complex.
    """

    T_END = 0.5
    # (d, seed of the random invertible data, alpha0, alpha1)
    CASES = {"2x2": (2, 3, 0.4 + 0.3j, 0.9 - 0.2j),
             "3x3": (3, 6, -0.5 + 0.2j, 1.3 + 0.1j)}
    MAPS = {"s0": weyl_s0, "s1": weyl_s1,
            "pi_s1": lambda s: weyl_pi(weyl_s1(s))}

    def first_state(self, case):
        d, seed, alpha0, alpha1 = self.CASES[case]
        rng = np.random.default_rng(seed)
        return SymState(*(random_invertible(rng, d, scale=0.5)
                          for _ in range(3)), alpha0, alpha1)

    def path(self, s0, h):
        flow = integrate_symmetric(s0, self.T_END, h)
        assert not flow.truncated
        return flow.path

    @staticmethod
    def fields(s):
        return s.v0, s.v1, s.v2

    def gap(self, case, weyl_map, h):
        """Largest field difference between the mapped path and the path
        integrated from the mapped first state."""
        mapped = weyl_map(self.path(self.first_state(case), h))
        image = self.path(mapped.at(0), h)
        return max((a - b).point_norms().max() for a, b in
                   zip(self.fields(mapped), self.fields(image)))

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("case", CASES)
    def test_maps_commute_with_the_flow(self, case, name):
        coarse, mid, fine = (self.gap(case, self.MAPS[name], h)
                             for h in (0.01, 0.005, 0.0025))
        # RK4's order: a ratio of 16 per halving of h.
        assert 14 <= coarse / mid <= 18
        assert 14 <= mid / fine <= 18

    @pytest.mark.parametrize("case", CASES)
    def test_s1_is_an_involution(self, case):
        path = self.path(self.first_state(case), 0.01)
        twice = weyl_s1(weyl_s1(path))
        for a, b in zip(self.fields(twice), self.fields(path)):
            assert (a - b).point_norms().max() <= 1e-12
        assert twice.alpha0 == pytest.approx(path.alpha0, abs=1e-15)
        assert twice.alpha1 == path.alpha1

    @pytest.mark.parametrize("case", CASES)
    def test_the_wrong_order_misses(self, case):
        # Exact at d = 1; on matrices it misses by the commutator of v2
        # and its image, which no step size removes.
        wrong = self.gap(case, wrong_order_s1, 0.01)
        assert wrong >= 0.1
        assert wrong > 1e6 * self.gap(case, weyl_s1, 0.01)
