import numpy as np
import pytest

from ncpain.dressing import masked_n_fold
from ncpain.quasidet import quasideterminant
from ncpain.ring import MatrixElement


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def gaussian_element(rng, d, scale=1.0):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return MatrixElement(scale * z)


def unit_element(rng, d):
    el = gaussian_element(rng, d)
    return el * (1.0 / el.norm())


def all_quasideterminants(a):
    """All n*n quasideterminants of a square BlockMatrix."""
    return [[quasideterminant(a, i, j) for j in range(a.m)]
            for i in range(a.n)]


def n_fold(chain, n):
    """v[n] of ``masked_n_fold``, on a chain where no grid point is masked."""
    grids, masks = masked_n_fold(chain, n)
    assert all(mask.all() for mask in masks)
    return grids[-1]
