import itertools

import numpy as np
import pytest

from ncpain.dressing import STEP_BLOCK, integrate_linear
from ncpain.integrators import rk4_path, rk4_step
from ncpain.laxpair import SymState, integrate_symmetric, symmetric_rhs
from ncpain.moyal import MoyalPolynomial
from ncpain.ring import DimensionMismatchError, MatrixElement

from conftest import array_symmetric_rhs, gaussian_element


def element_path(f, t0, y0, h, steps):
    """The path as rk4_step computes it, one step at a time."""
    states = [y0]
    for i in range(steps):
        states.append(rk4_step(f, t0 + i * h, states[-1], h))
    return states


def same_bytes(got, expected):
    for g, e in zip(got, expected, strict=True):
        for a, b in zip(g, e, strict=True):
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()


def signed_zeros(*pairs):
    return MatrixElement(np.array([complex(*p) for p in pairs]).reshape(2, 2))


class TestRingChecks:
    def test_the_ring_is_checked(self, rng):
        y0 = (gaussian_element(rng, 3),)
        for constant in (gaussian_element(rng, 1), MoyalPolynomial.one(0.1)):
            for rhs in (lambda t, y: (y[0] * constant,),
                        lambda t, y: (constant + y[0],)):
                with pytest.raises(DimensionMismatchError):
                    rk4_path(rhs, 0.0, y0, 0.1, 5, monitor=pytest.fail)

    def test_integrate_linear_checks_the_ring_of_the_seed(self, rng):
        init = (gaussian_element(rng, 3), gaussian_element(rng, 3))
        small = gaussian_element(rng, 1)
        for seed in (lambda zs: small,
                     lambda zs: MatrixElement.scalars(zs, 2),
                     lambda zs: MoyalPolynomial.one(0.1)):
            with pytest.raises(DimensionMismatchError):
                integrate_linear(seed, [1j], init, 1.0, 1e-3, 5)


def noncentral_seed(d, rng):
    """v(z) = m / z + z^2 n with random complex m and n: (d, d) at one z,
    batched at an array of z, with the same bits at each z."""
    m, n_ = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for _ in range(2))
    return lambda z: MatrixElement(np.multiply.outer(1.0 / z, m)
                                   + np.multiply.outer(z * z, n_))


def stepwise_pairs(v, lams, init, z0, h, n):
    """(chi, phi) arrays of shape (n, d, d) per lambda from RK4 on elements,
    one step at a time, with ``v`` called at one z per stage."""
    d = init[0].d
    lead = MatrixElement.scalars([-2.0 * 1j * x for x in lams], d)
    trail = MatrixElement.scalars([2.0 * 1j * x for x in lams], d)

    def rhs(z, y):
        chi, phi = y
        vz = v(z)
        return lead * chi + vz * phi, vz * chi + trail * phi

    shape = (len(lams), d, d)
    states = element_path(rhs, z0, init, h, n - 1)
    return [tuple(np.stack([np.broadcast_to(s[field].data, shape)[j]
                            for s in states]) for field in (0, 1))
            for j in range(len(lams))]


def worst_relative_gap(pairs, expected):
    """Largest |got - want| / |want| over every grid point of every grid."""
    worst = 0.0
    for (chi, phi), want in zip(pairs, expected, strict=True):
        for got, ref in zip((chi.batch.data, phi.batch.data), want):
            assert got.shape == ref.shape
            gap = (np.linalg.norm(got - ref, axis=(1, 2))
                   / np.linalg.norm(ref, axis=(1, 2)))
            worst = max(worst, gap.max())
    return worst


class TestReplay:
    """integrate_linear replays the stepwise RK4 on elements, its
    reference, at every grid point to rounding."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_integrate_linear_matches_the_element_path(self, d):
        # Three complex lambdas: batched lead/trail meet an unbatched
        # initial pair; then one lambda alone.  Propagators reassociate the
        # step's sums, so the two agree to rounding, not to the bit.
        rng = np.random.default_rng(40 + d)
        v = noncentral_seed(d, rng)
        init = (gaussian_element(rng, d), gaussian_element(rng, d))
        z0, h, n = 1.0, 1e-3, 1001
        for lams in ((1j, 0.5 - 2j, -1.25 + 0.75j), (0.5 - 2j,)):
            pairs = integrate_linear(v, lams, init, z0, h, n)
            expected = stepwise_pairs(v, list(lams), init, z0, h, n)
            assert worst_relative_gap(pairs, expected) <= 1e-13


class TestEigenfunctionPropagators:
    """integrate_linear forms RK4 step propagators in blocks and applies
    one per grid point; the stepwise RK4 on elements is its reference."""

    def test_seed_sees_the_stepwise_abscissae(self, rng):
        # Bit for bit: z_k, z_k + h/2 (twice) and z_k + h for every step k,
        # in blocks of STEP_BLOCK steps, four calls per block.
        z0, h, n = 0.3, 7e-4, 150
        batched, stepwise = [], []

        def logged(log):
            def v(z):
                log.append(z)
                return MatrixElement.zeros(2)
            return v

        init = (gaussian_element(rng, 2), gaussian_element(rng, 2))
        integrate_linear(logged(batched), [1j], init, z0, h, n)
        stepwise_pairs(logged(stepwise), [1j], init, z0, h, n)
        blocks = -(-(n - 1) // STEP_BLOCK)
        assert len(batched) == 4 * blocks
        assert all(isinstance(z, np.ndarray) for z in batched)
        # Calls run (block, stage) and each holds a block's steps; the
        # stepwise log runs (step, stage).
        by_step = np.concatenate([np.stack(batched[4 * b:4 * b + 4], axis=1)
                                  for b in range(blocks)])
        want = np.array(stepwise).reshape(n - 1, 4)
        assert by_step.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, lams, n", [
        (2, (1j, 0.5 - 2j), 2), (2, (1j, 0.5 - 2j), 64),
        (2, (1j, 0.5 - 2j), 65), (2, (1j, 0.5 - 2j), 66),
        (3, (1j, 2j, 3j - 0.5, 4j + 0.25), 130)])
    def test_every_row_is_written(self, d, lams, n, monkeypatch):
        # Around the block boundaries: 1, 63, 64 and 65 steps, and two full
        # blocks plus one step at d = 3 with four lambdas.  np.empty hands
        # out NaN here, so a row the integration never wrote cannot pass.
        rng = np.random.default_rng(n + d)
        v = noncentral_seed(d, rng)
        init = (gaussian_element(rng, d), gaussian_element(rng, d))
        real_empty = np.empty

        def nan_empty(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        pairs = integrate_linear(v, lams, init, 1.0, 1e-3, n)
        monkeypatch.undo()
        for chi, phi in pairs:
            assert len(chi) == len(phi) == n
            assert np.isfinite(chi.batch.data).all()
            assert np.isfinite(phi.batch.data).all()
        expected = stepwise_pairs(v, list(lams), init, 1.0, 1e-3, n)
        assert worst_relative_gap(pairs, expected) <= 1e-13

    def test_unbatched_constant_seed_broadcasts(self, rng):
        # A seed that returns one (d, d) value holds it at every z: the
        # same bits as that value batched over the abscissae.
        c = gaussian_element(rng, 2)
        init = (gaussian_element(rng, 2), gaussian_element(rng, 2))
        lams = (1j, -0.5 + 1j)

        def batched(zs):
            return MatrixElement(np.broadcast_to(c.data, zs.shape + (2, 2)))

        pairs = integrate_linear(lambda zs: c, lams, init, 1.0, 1e-3, 70)
        for got, want in zip(pairs, integrate_linear(
                batched, lams, init, 1.0, 1e-3, 70), strict=True):
            for a, b in zip(got, want):
                assert a.batch.data.tobytes() == b.batch.data.tobytes()


class TestPathStates:
    """RK4 paths on stacked arrays against the element path, and their
    states' ownership."""

    def test_flow_with_signed_zeros(self):
        y0 = (signed_zeros((0.3, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.2, 0.0)),
              signed_zeros((1.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.7, -0.0)),
              signed_zeros((-0.0, 0.0), (0.25, -0.0), (-0.0, 0.0),
                           (-0.5, 0.0)))
        alpha0, alpha1, h, steps = complex(0.5, -0.0), complex(-0.0, 1.5), \
            0.01, 70
        flow = integrate_symmetric(SymState(*y0, alpha0, alpha1), steps * h,
                                   h)
        # The reference steps each field as its own bare array.
        rhs = array_symmetric_rhs(alpha0, alpha1, 2)
        expected = [tuple(map(MatrixElement, y)) for y in element_path(
            rhs, 0.0, tuple(el.data for el in y0), h, steps)]
        assert not flow.truncated
        same_bytes([(s.v0, s.v1, s.v2) for s in flow.states], expected)
        # The comparison sees signs of zero: some stay negative.
        last = np.concatenate([el.data.ravel() for el in expected[-1]])
        parts = np.concatenate([last.real, last.imag])
        assert np.any((parts == 0) & np.signbit(parts))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flow_tracks_the_element_path(self, d, seed):
        # Elements multiply with ring._product, the stacked flow with @:
        # the two agree to rounding, not to the bit.
        rng = np.random.default_rng([seed, d])
        y0 = tuple(gaussian_element(rng, d, scale=0.5) for _ in range(3))
        alpha0, alpha1, h, steps = 0.5 - 0.2j, 1.5, 0.01, 100
        flow = integrate_symmetric(SymState(*y0, alpha0, alpha1), steps * h,
                                   h)

        def rhs(t, y):
            return symmetric_rhs(SymState(*y, alpha0, alpha1, t))

        expected = element_path(rhs, 0.0, y0, h, steps)
        assert not flow.truncated and len(flow.states) == len(expected)
        for s, y in zip(flow.states, expected):
            got = np.stack([s.v0.data, s.v1.data, s.v2.data])
            ref = np.stack([el.data for el in y])
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_flow_fields_are_read_only(self, rng):
        # Each field is a view of the stacked state; the stack stays
        # writable, so the view itself must refuse writes.
        y0 = tuple(gaussian_element(rng, 2) for _ in range(3))
        flow = integrate_symmetric(SymState(*y0, 0.5, 1.5), 0.1, 0.01)
        assert len(flow.states) == 11
        for s in flow.states:
            for el in (s.v0, s.v1, s.v2):
                assert not el.data.flags.writeable
                with pytest.raises(ValueError):
                    el.data[0, 0] = 0.0
        for s, t in itertools.combinations(flow.states, 2):
            assert not np.shares_memory(s.v0.data, t.v0.data)

    def test_states_are_read_only_and_share_no_buffer(self, rng):
        y0 = tuple(gaussian_element(rng, 3) for _ in range(3))
        a = MatrixElement.eye(3)
        states, _ = rk4_path(lambda t, y: (y[1] * y[2], y[2] - y[0], a + y[1]),
                             0.0, y0, 0.01, 70)
        arrays = [el.data for s in states[1:] for el in s]
        assert len(arrays) == 3 * 70
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        for x, y in itertools.combinations(arrays + [a.data] + [
                el.data for el in y0], 2):
            assert not np.shares_memory(x, y)


class TestElementPath:
    @staticmethod
    def poly(coeffs):
        return MoyalPolynomial(coeffs, theta=0.3, cap=16)

    def test_rk4_path_over_star_polynomials(self):
        # MoyalPolynomial keeps the ring operations: the path gives exactly
        # the coefficients of the operator form of RK4.
        a = self.poly({(0, 0): 0.5, (0, 1): 1.0 - 0.25j})
        ts = []

        def drive(t):
            ts.append(t)
            return self.poly({(0, 0): 1.0, (1, 0): t})

        def f(t, y):
            p, q = y
            return p * drive(t) + t, q * a - 0.5j * p

        y = (self.poly({(0, 0): 1.0, (1, 0): 0.2 - 0.1j}),
             self.poly({(0, 0): -0.3j, (0, 1): 0.7}))
        t0, h, steps = 0.25, 0.1, 3
        got, reason = rk4_path(f, t0, y, h, steps)
        assert reason is None and len(got) == steps + 1
        expected, times = [y], []
        for i in range(steps):
            t = t0 + i * h
            stage = (t, t + h / 2, t + h / 2, t + h)
            times += stage
            y = expected[-1]
            k1 = f(stage[0], y)
            k2 = f(stage[1], tuple(yi + (h / 2) * ki for yi, ki in zip(y, k1)))
            k3 = f(stage[2], tuple(yi + (h / 2) * ki for yi, ki in zip(y, k2)))
            k4 = f(stage[3], tuple(yi + h * ki for yi, ki in zip(y, k3)))
            expected.append(tuple(yi + (h / 6) * (a1 + 2 * b + 2 * c + d)
                                  for yi, a1, b, c, d
                                  in zip(y, k1, k2, k3, k4)))
        assert ts == times + times
        for g, e in zip(got, expected, strict=True):
            assert [x.coeffs for x in g] == [x.coeffs for x in e]
        assert max(m + n for m, n in got[-1][0].coeffs) == 13
