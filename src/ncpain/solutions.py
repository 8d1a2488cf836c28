"""Exact solutions of P-II, v'' = 2v^3 - 4zv + C, and their jets: v = s/z
times the identity solves it at C = 4s, for the sign s of each seed name.
ROADMAP items 1, 6 and 7 (the jet ladder, the Airy seeds, the Toda chain)
add their constructions here, not in ``cli.py``."""

from __future__ import annotations

import numpy as np

from .ring import MatrixElement

SEED_SIGNS = {"rational": 1, "rational-neg": -1, "zero": 0}


def seed_constant(s: int) -> complex:
    """The C at which the seed of sign s solves P-II."""
    return complex(4 * s)


def seed_value(s: int, z: np.ndarray, d: int) -> MatrixElement:
    """v = s/z times the d x d identity at each point of z; the zero seed
    is +0.0, not 0/z's NaN at z = 0 and -0.0 below it."""
    return MatrixElement.scalars(s / z if s else np.zeros(z.shape), d)


def seed_jets(s: int, z: np.ndarray, d: int) -> tuple[MatrixElement, ...]:
    """(v, v', v'') = (s/z, -s/z^2, 2s/z^3) times the d x d identity at each
    point of z, v from ``seed_value``.  float_power rounds as a per-point
    z ** k (an array's ** may not); the zero seed's derivatives are +0.0."""
    jets = ((-s / np.float_power(z, 2), 2 * s / np.float_power(z, 3))
            if s else (np.zeros(z.shape),) * 2)
    return (seed_value(s, z, d), *(MatrixElement.scalars(x, d) for x in jets))
