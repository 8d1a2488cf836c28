import numpy as np
import pytest

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
