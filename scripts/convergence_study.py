#!/usr/bin/env python3
"""Order-of-accuracy study for the two integrators and the residual stencil.

Prints error ratios under step halving: the flow and eigenfunction
integrators should show ~16x (4th order), the second-difference residual
of the exact rational solution ~4x (2nd order).  Every step keeps its
error well above rounding (the smallest, the flow's at h = 2.5e-3, reads
about 1e-13).  Exits 1 when a ratio leaves its band, [14, 18] for RK4 and
[3.8, 4.2] for the stencil: an order has been lost.

    PYTHONPATH=src python scripts/convergence_study.py
"""

import sys

import numpy as np

from ncpain.ring import MatrixElement
from ncpain.grid import GridFunction
from ncpain.laxpair import (SymState, integrate_symmetric,
                            normalize_first_integral, pii_residual_grid)
from ncpain.dressing import integrate_linear
from ncpain.solutions import (SEED_SIGNS, seed_constant, seed_jets,
                              seed_value)

ONE = MatrixElement.eye(1)
SIGN = SEED_SIGNS["rational"]  # v = 1/z, exact for P-II at C = 4
RK4_BAND = (14.0, 18.0)
STENCIL_BAND = (3.8, 4.2)


def flow_errors():
    s0 = normalize_first_integral(
        SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                 MatrixElement.scalar(0.3), 0.5, 1.5, 0.0))

    def endpoint(h):
        return MatrixElement(integrate_symmetric(s0, 1.0, h).path.v2.data[-1])

    ref = endpoint(6.25e-5)
    return [(h, (endpoint(h) - ref).norm()) for h in (1e-2, 5e-3, 2.5e-3)]


def eigenfunction_errors():
    def seed(z):
        return seed_value(SIGN, z, 1)

    def endpoint(h):
        n = round(1.0 / h) + 1
        [(chi, _)] = integrate_linear(seed, [1j], (ONE, ONE), 1.0, h, n)
        return chi[len(chi) - 1]

    ref = endpoint(6.25e-5)
    return [(h, (endpoint(h) - ref).norm()) for h in (4e-3, 2e-3, 1e-3)]


def stencil_errors():
    out = []
    for h in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / h) + 1
        v, _, _ = seed_jets(SIGN, 1.0 + h * np.arange(n), 1)
        grid = GridFunction(1.0, h, v)
        out.append((h, pii_residual_grid(grid, seed_constant(SIGN))
                    .sup_norm()))
    return out


def check_table(title, rows, band) -> bool:
    """Print the errors and their ratios; True if every ratio is in band."""
    lo, hi = band
    print(f"{title} (expect {lo:g}x to {hi:g}x):")
    ok, prev = True, None
    for h, err in rows:
        line = f"  h = {h:8.2e}   error = {err:10.3e}"
        if prev is not None:
            line += f"  ratio {prev / err:6.2f}"
            if not lo <= prev / err <= hi:
                ok = False
                line += "  OUT OF BAND"
        print(line)
        prev = err
    print()
    return ok


if __name__ == "__main__":
    ok = [check_table("symmetric flow endpoint error", flow_errors(),
                      RK4_BAND),
          check_table("eigenfunction integration endpoint error",
                      eigenfunction_errors(), RK4_BAND),
          check_table("rational-solution stencil residual",
                      stencil_errors(), STENCIL_BAND)]
    if not all(ok):
        print("order of accuracy lost", file=sys.stderr)
    sys.exit(0 if all(ok) else 1)
