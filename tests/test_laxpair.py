import warnings

import numpy as np
import pytest

from ncpain.integrators import rk4_step
from ncpain.ring import MatrixElement, anticommutator, random_invertible
from ncpain.grid import GridFunction
from ncpain.laxpair import (STENCIL_BLOCK, PiiState, SymState, build_A,
                            build_B, build_L, build_P, first_integral,
                            first_integral_drift, integrate_symmetric, lax_residual_symmetric,
                            normalize_first_integral, pii_from_zero_curvature,
                            pii_residual_exact, pii_residual_grid,
                            reduction_check, symmetric_rhs,
                            zero_curvature_residual)

from conftest import gaussian_element

LAMBDAS = (1.0 + 0j, 1j, 2 - 3j)


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
    one = MatrixElement.eye(d)
    return PiiState(v=(sign / z) * one, v_z=(-sign / z ** 2) * one,
                    v_zz=(2 * sign / z ** 3) * one, z=z, lam=lam,
                    C=4.0 * sign)


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
        one = MatrixElement.eye(2)
        for z in (1.0, 1.31, 2.0):
            v = (sign / z) * one
            v_zz = (2 * sign / z ** 3) * one
            assert pii_residual_exact(v, v_zz, z, c_val).norm() <= 1e-14

    def test_grid_residual_of_rational_seed(self):
        one = MatrixElement.eye(1)
        f = GridFunction.sample(lambda z: (1.0 / z) * one, 1.0, 1e-3, 1001)
        res = pii_residual_grid(f, 4.0)
        # stencil error ~ v'''' h^2 / 12 = 2 h^2 / z^5, about 2e-6 at z = 1
        assert res.sup_norm() <= 1e-5
        assert res.sup_norm() >= 1e-8

    def test_grid_residual_matches_pointwise_exactly(self, rng):
        # Longer than two evaluation blocks, so block edges are covered.
        n = 2 * STENCIL_BLOCK + 7
        f = GridFunction(1.0, 1e-3, [gaussian_element(rng, 2)
                                     for _ in range(n)])
        res = pii_residual_grid(f, 4.0, z_shift=0.3)
        inv_h2 = 1.0 / (f.h * f.h)
        assert len(res) == n - 2
        for k in range(1, n - 1):
            v_zz = (f[k - 1] - 2 * f[k] + f[k + 1]) * inv_h2
            expected = pii_residual_exact(f[k], v_zz, f.z(k) + 0.3, 4.0)
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
            res = lax_residual_symmetric(s, rhs=perturbed)
            assert res.norm() == pytest.approx(eps, rel=1e-9)


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
        assert first_integral_drift(flow.states) == expected

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


class TestReduction:
    def _normalized_flow(self, v0=0.1, v2=0.3, alpha0=0.5, alpha1=1.5):
        s0 = normalize_first_integral(
            SymState(MatrixElement.scalar(v0), MatrixElement.scalar(1.0),
                     MatrixElement.scalar(v2), alpha0, alpha1, 0.0))
        return integrate_symmetric(s0, 1.0, 1e-3)

    def test_normalized_scalar_trajectory(self):
        flow = self._normalized_flow()
        assert not flow.truncated
        residual = reduction_check(flow.states)
        assert residual.sup_norm() <= 1e-5

    def test_normalized_matrix_trajectory(self):
        v0 = MatrixElement([[0.12, 0.03], [0.0, 0.18]])
        v2 = MatrixElement([[0.25, 0.1], [-0.05, 0.3]])
        s0 = normalize_first_integral(
            SymState(v0, MatrixElement.eye(2), v2, 0.5, 1.5, 0.0))
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        assert not flow.truncated
        assert reduction_check(flow.states).sup_norm() <= 1e-5

    def test_unnormalized_control_does_not_vanish(self):
        s0 = SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.3), 0.5, 1.5, 0.0)
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        normalized = self._normalized_flow()
        bad = reduction_check(flow.states).sup_norm()
        good = reduction_check(normalized.states).sup_norm()
        assert bad > 1e3 * good

    def test_constant_shift_knob_compensates(self):
        # first integral = k != 0 solves the equation in z = t + k/2
        s0 = SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.3), 0.5, 1.5, 0.0)
        k = complex(first_integral(s0).data[0, 0]).real
        flow = integrate_symmetric(s0, 1.0, 1e-3)
        residual = reduction_check(flow.states, integration_constant=k)
        assert residual.sup_norm() <= 1e-5

    def test_alpha_sum_precondition(self):
        s0 = SymState(MatrixElement.scalar(1.0), MatrixElement.scalar(1.0),
                      MatrixElement.scalar(0.0), 0.0, 0.0, 0.0)
        flow = integrate_symmetric(s0, 0.1, 1e-3)
        with pytest.raises(ValueError):
            reduction_check(flow.states)
