"""Classical fixed-step 4th-order integration.

A state is a tuple of values closed under ``+``, ``-``, multiplication by
a number and ``@``: ring elements, or bare ``numpy`` arrays, such as one
array stacking every ``MatrixElement`` field of a system, which makes each
stage combination one numpy operation with the bits of one per field.
The time may be an array of start times, one step per start time, for a
right-hand side that evaluates them all at once (``integrate_linear``'s
step propagators).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

State = tuple
Rhs = Callable[[float | np.ndarray, State], State]
# (times, states) of a block -> None, or (first refused index, reason)
Monitor = Callable[[list, list], tuple[int, str] | None]
MONITOR_BLOCK = 64  # steps per monitor call


def _axpy(y: State, k: State, c: complex) -> State:
    return tuple([yi + c * ki for yi, ki in zip(y, k)])


def rk4_step(f: Rhs, t: float | np.ndarray, y: State, h: float) -> State:
    """One classical RK4 step of y' = f(t, y) from t to t + h.

    ``t`` may be an array of start times: one step per start time, all
    taken by the same four calls of ``f``, at t, t + h/2, t + h/2 and
    t + h elementwise, with the bits of each step's own times."""
    # Complex coefficients: a ring scales by complex numbers, and numpy
    # would convert a float or an int to one on every product.  Tuples
    # are built from lists, which is cheaper than from generators here.
    half, two, sixth = complex(h / 2), complex(2), complex(h / 6)
    k1 = f(t, y)
    k2 = f(t + h / 2, _axpy(y, k1, half))
    k3 = f(t + h / 2, _axpy(y, k2, half))
    k4 = f(t + h, _axpy(y, k3, complex(h)))
    return tuple([yi + sixth * (a + two * b + two * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])


def rk4_path(f: Rhs, t0: float, y0: State, h: float, steps: int,
             monitor: Monitor | None = None
             ) -> tuple[list[State], str | None]:
    """Integrate ``steps`` RK4 steps; stop early if the monitor objects.

    The monitor sees MONITOR_BLOCK steps at a time (fewer in the last
    block): their times ``t0 + i*h + h`` and states.  It returns None, or
    the index of the first refused state in the block and the reason; the
    path then ends just before that state and drops the rest of the block
    (silencing the floating-point warnings it may raise is up to the caller).

    Returns the list of states (including y0) and the truncation reason,
    or None if the full path was covered.
    """
    states, y = [y0], y0
    for lo in range(0, steps, MONITOR_BLOCK):
        block = range(lo, min(lo + MONITOR_BLOCK, steps))
        ys = [y := rk4_step(f, t0 + i * h, y, h) for i in block]
        refused = None if monitor is None else \
            monitor([t0 + i * h + h for i in block], ys)
        if refused is not None:
            k, reason = refused
            return states + ys[:k], reason
        states += ys
    return states, None
