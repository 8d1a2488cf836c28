import numpy as np
import pytest

from ncpain.laxpair import pii_residual_exact
from ncpain.ring import MatrixElement
from ncpain.solutions import (SEED_SIGNS, seed_constant, seed_jets,
                              seed_value)

# zc's 9 points, and dress grids (z0, h, n) as run_dressing builds them.
ZC_POINTS = np.linspace(1.0, 2.0, 9)
DRESS_GRIDS = [(1.0, 1e-3, 1001), (-2.0, 1e-3, 1001)]


def dress_points(z0, h, n):
    return z0 + h * np.arange(n)


def per_point_jets(s, z, d):
    """The seed's jets spelled one point at a time: the reference that the
    batched jets must match bit for bit."""
    eye = MatrixElement.eye(d)
    return ((s / z) * eye, (-s / z ** 2) * eye, (2 * s / z ** 3) * eye)


def bits(data):
    return data.view(np.uint64)


def point_sets():
    # zc's numpy floats, and the Python floats z0 + k*h of a dress grid.
    yield ZC_POINTS, list(ZC_POINTS)
    for z0, h, n in DRESS_GRIDS:
        yield dress_points(z0, h, n), [z0 + k * h for k in range(n)]


class TestSeedJets:
    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_equal_the_per_point_spelling_bit_for_bit(self, s, d):
        for z, singles in point_sets():
            jets = seed_jets(s, z, d)
            for k, zk in enumerate(singles):
                for batched, single in zip(jets, per_point_jets(s, zk, d)):
                    assert np.array_equal(bits(batched.data[k]),
                                          bits(single.data))

    @pytest.mark.parametrize("s", sorted(SEED_SIGNS.values()))
    def test_value_is_the_first_jet_bit_for_bit(self, s):
        # dress integrates its eigenfunctions on seed_value alone.
        for z, _ in point_sets():
            assert np.array_equal(bits(seed_value(s, z, 3).data),
                                  bits(seed_jets(s, z, 3)[0].data))

    @pytest.mark.parametrize("s", [1, -1])
    def test_solve_pii_at_their_own_C(self, s):
        for z, _ in point_sets():
            v, _, v_zz = seed_jets(s, z, 2)
            res = pii_residual_exact(v, v_zz, z, seed_constant(s))
            assert res.point_norms().max() <= 1e-14

    @pytest.mark.parametrize("s", [1, -1])
    def test_derivatives_match_fourth_order_differences(self, s):
        # (f(z-2h) - 8 f(z-h) + 8 f(z+h) - f(z+2h)) / 12h has error
        # f^(5) h^4 / 30, so halving h divides it by 16.  On [0.96, 2.04]
        # |v^(5)| = 120/z^6 < 160 and |v'^(5)| = 720/z^7 < 960, so both
        # errors stay below 32 h^4.  Only v and v' at shifted points
        # enter, not the formulas of the jets.
        z = ZC_POINTS

        def errors(h):
            shifted = [seed_jets(s, z + k * h, 1) for k in (-2, -1, 1, 2)]
            out = []
            for order in (0, 1):
                f = [jets[order].data for jets in shifted]
                diff = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
                exact = seed_jets(s, z, 1)[order + 1].data
                out.append(np.abs(diff - exact).max())
            return np.array(out)

        coarse, fine = errors(2e-2), errors(1e-2)
        assert (fine <= 32 * 1e-2 ** 4).all()
        assert ((14 <= coarse / fine) & (coarse / fine <= 18)).all()

    def test_zero_seed_reads_positive_zero_around_z_zero(self):
        # 0 / z would read NaN at z = 0 and -0.0 for z < 0.
        grid = dress_points(-0.5, 1e-3, 1001)
        assert grid[500] == 0.0
        for z in (grid, np.array([-1.0, -0.0, 0.0, 5e-324, 1.0])):
            for jet in seed_jets(SEED_SIGNS["zero"], z, 3):
                assert not bits(jet.data).any()
