import itertools

import numpy as np
import pytest

from ncpain.dressing import integrate_linear
from ncpain.integrators import rk4_path, rk4_step
from ncpain.laxpair import SymState, integrate_symmetric, symmetric_rhs
from ncpain.moyal import MoyalPolynomial
from ncpain.ring import DimensionMismatchError, MatrixElement

from conftest import gaussian_element


def element_path(f, t0, y0, h, steps):
    """The path as rk4_step computes it on elements, one step at a time."""
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
        with pytest.raises(DimensionMismatchError):
            integrate_linear(lambda z: small, 1j, init, 1.0, 1e-3, 5)


class TestReplay:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_integrate_linear_matches_the_element_path(self, d):
        # Three lambdas: batched lead/trail meet an unbatched initial pair.
        # One lambda, not in a sequence, gives one pair and not a list.
        rng = np.random.default_rng(40 + d)
        m, n_ = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                 for _ in range(2))
        init = (gaussian_element(rng, d), gaussian_element(rng, d))
        z0, h, n = 1.0, 1e-3, 40
        for lam in ((1j, 0.5 - 2j, -1.25), 0.5 - 2j):
            lams = np.atleast_1d(lam).tolist()
            seen = {"replay": [], "element": []}

            def seed(log):
                def v(z):
                    seen[log].append(z)
                    return (1.0 / z) * MatrixElement(m) \
                        + (z * z) * MatrixElement(n_)
                return v

            pairs = integrate_linear(seed("replay"), lam, init, z0, h, n)
            if not np.ndim(lam):
                assert isinstance(pairs, tuple) and len(pairs) == 2
                pairs = [pairs]

            lead = MatrixElement.scalars([-2.0 * 1j * x for x in lams], d)
            trail = MatrixElement.scalars([2.0 * 1j * x for x in lams], d)
            v = seed("element")

            def rhs(z, y):
                chi, phi = y
                vz = v(z)
                return lead * chi + vz * phi, vz * chi + trail * phi

            expected = element_path(rhs, z0, init, h, n - 1)
            shape = (len(lams), d, d)
            assert expected[1][0].data.shape == shape
            assert seen["replay"] == seen["element"]
            assert len(seen["replay"]) == 4 * (n - 1)
            assert len(pairs) == len(lams)
            for j, (chi, phi) in enumerate(pairs):
                for grid, field in ((chi, 0), (phi, 1)):
                    want = np.stack([np.broadcast_to(s[field].data, shape)[j]
                                     for s in expected])
                    assert grid.batch.data.tobytes() == want.tobytes()

    def test_flow_with_signed_zeros(self):
        y0 = (signed_zeros((0.3, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.2, 0.0)),
              signed_zeros((1.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.7, -0.0)),
              signed_zeros((-0.0, 0.0), (0.25, -0.0), (-0.0, 0.0),
                           (-0.5, 0.0)))
        alpha0, alpha1, h, steps = complex(0.5, -0.0), complex(-0.0, 1.5), \
            0.01, 70
        flow = integrate_symmetric(SymState(*y0, alpha0, alpha1), steps * h,
                                   h)

        def rhs(t, y):
            return symmetric_rhs(SymState(*y, alpha0, alpha1, t))

        expected = element_path(rhs, 0.0, y0, h, steps)
        assert not flow.truncated
        same_bytes([(s.v0, s.v1, s.v2) for s in flow.states], expected)
        # The comparison sees signs of zero: some stay negative.
        last = np.concatenate([el.data.ravel() for el in expected[-1]])
        parts = np.concatenate([last.real, last.imag])
        assert np.any((parts == 0) & np.signbit(parts))

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
