#!/usr/bin/env python3
"""Order-of-accuracy study for the two integrators and the residual stencil.

Prints error ratios under step halving: the flow and eigenfunction
integrators should show ~16x (4th order), the second-difference residual
of the exact rational solution ~4x (2nd order).
"""

from ncpain.ring import MatrixElement
from ncpain.grid import GridFunction
from ncpain.laxpair import (SymState, integrate_symmetric,
                            normalize_first_integral, pii_residual_grid)
from ncpain.dressing import integrate_linear

ONE = MatrixElement.eye(1)


def seed(z):
    """The rational seed v = 1/z, exact for P-II at C = 4."""
    return (1.0 / z) * ONE


def flow_errors():
    s0 = normalize_first_integral(
        SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                 MatrixElement.scalar(0.3), 0.5, 1.5, 0.0))

    def endpoint(h):
        return MatrixElement(integrate_symmetric(s0, 1.0, h).path.v2.data[-1])

    ref = endpoint(6.25e-5)
    return [(h, (endpoint(h) - ref).norm()) for h in (4e-3, 2e-3, 1e-3)]


def eigenfunction_errors():
    def endpoint(h):
        n = round(1.0 / h) + 1
        chi, _ = integrate_linear(seed, 1j, (ONE, ONE), 1.0, h, n)
        return chi[len(chi) - 1]

    ref = endpoint(6.25e-5)
    return [(h, (endpoint(h) - ref).norm()) for h in (4e-3, 2e-3, 1e-3)]


def stencil_errors():
    out = []
    for h in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / h) + 1
        grid = GridFunction.sample(seed, 1.0, h, n)
        out.append((h, pii_residual_grid(grid, 4.0).sup_norm()))
    return out


def print_table(title, rows):
    print(title)
    prev = None
    for h, err in rows:
        ratio = "" if prev is None else f"  ratio {prev / err:6.2f}"
        print(f"  h = {h:8.2e}   error = {err:10.3e}{ratio}")
        prev = err
    print()


if __name__ == "__main__":
    print_table("symmetric flow endpoint error (expect ~16x):",
                flow_errors())
    print_table("eigenfunction integration endpoint error (expect ~16x):",
                eigenfunction_errors())
    print_table("rational-solution stencil residual (expect ~4x):",
                stencil_errors())
