"""Fixed-size layer kernels: one call of a layer's function, timed alone.

Sizes follow the ROADMAP's list: ring multiply and inverse at d = 1, 3, 8;
block inverse and quasideterminant at n = 4, d = 2; one exact star product
at degree cap 24; one RK4 step of the symmetric flow at d = 3; one dressing
step and one residual stencil on 1001 points at d = 3.  Composite kernels
also report how many ring multiplies and inverses one call performs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from ncpain.dressing import SpectralPoint, darboux_once
from ncpain.grid import GridFunction
from ncpain.integrators import rk4_step
from ncpain.laxpair import SymState, pii_residual_grid, symmetric_rhs
from ncpain.moyal import MoyalPolynomial, star_product
from ncpain.quasidet import BlockMatrix, block_inverse, quasideterminant
from ncpain.ring import MatrixElement, random_invertible, random_matrix

from tracing import Tracer

BATCHES = 5
MIN_BATCH_S = 0.02


def _time_per_call(fn) -> float:
    """Median seconds per call over BATCHES batches of at least MIN_BATCH_S."""
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= MIN_BATCH_S:
            break
        reps *= 2
    samples = [elapsed / reps]
    for _ in range(BATCHES - 1):
        start = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - start) / reps)
    return statistics.median(samples)


def _ring_ops(fn) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    return counts["ring.mul_calls"] + counts["ring.inv_calls"]


def _kernels(rng):
    """(metric name, scale to the metric's unit, zero-argument call)."""
    out = []
    for d in (1, 3, 8):
        a, b = random_invertible(rng, d), random_invertible(rng, d)
        out.append((f"ring.mul_us.d{d}", 1e6, lambda a=a, b=b: a * b))
        out.append((f"ring.inv_us.d{d}", 1e6, a.inv))

    # Diagonally dominant, so every Schur complement is invertible.
    eye = MatrixElement.eye(2)
    matrix = BlockMatrix([[4.0 * eye + random_matrix(rng, 2, 0.5) if i == j
                           else random_matrix(rng, 2, 0.5)
                           for j in range(4)] for i in range(4)])
    out.append(("quasidet.block_inverse_us", 1e6,
                lambda: block_inverse(matrix)))
    out.append(("quasidet.qd_us", 1e6,
                lambda: quasideterminant(matrix, 0, 0)))

    def dense(degree):
        return MoyalPolynomial(
            {(m, n): complex(*rng.uniform(-1.0, 1.0, 2))
             for m in range(degree + 1) for n in range(degree + 1 - m)},
            theta=0.05, cap=24)

    f, g = dense(12), dense(12)
    out.append(("moyal.star_ms", 1e3, lambda: star_product(f, g)))

    y = tuple(random_invertible(rng, 3, scale=0.5) for _ in range(3))

    def rhs(t, state):
        return symmetric_rhs(SymState(*state, 0.5, 1.5, t))

    out.append(("integrators.rk4_step_us", 1e6,
                lambda: rk4_step(rhs, 0.0, y, 5e-4)))

    z0, h, n = 1.0, 1e-3, 1001
    eye3 = MatrixElement.eye(3)
    v = GridFunction.sample(
        lambda z: (1.0 / z) * eye3 + random_matrix(rng, 3, 0.1), z0, h, n)
    point = SpectralPoint(
        2j, GridFunction(z0, h, [random_invertible(rng, 3) for _ in range(n)]),
        GridFunction(z0, h, [random_matrix(rng, 3) for _ in range(n)]))
    out.append(("dressing.darboux_once_ms", 1e3,
                lambda: darboux_once(v, point)))
    out.append(("laxpair.residual_grid_ms", 1e3,
                lambda: pii_residual_grid(v, 4.0)))
    return out


# Composite kernels whose ring operation count is reported too.
_COUNTED = {"quasidet.block_inverse_us": "quasidet.block_inverse_ring_ops",
            "quasidet.qd_us": "quasidet.qd_ring_ops",
            "integrators.rk4_step_us": "integrators.rk4_step_ring_ops",
            "dressing.darboux_once_ms": "dressing.darboux_once_ring_ops",
            "laxpair.residual_grid_ms": "laxpair.residual_grid_ring_ops"}


def measure(seed: int) -> dict:
    """Every kernel metric, with inputs drawn from ``seed``."""
    metrics = {}
    for name, scale, fn in _kernels(np.random.default_rng([seed, 9])):
        metrics[name] = scale * _time_per_call(fn)
        if name in _COUNTED:
            metrics[_COUNTED[name]] = _ring_ops(fn)
    return metrics
