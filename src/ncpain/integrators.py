"""Classical fixed-step 4th-order integration for tuples of RingElements."""

from __future__ import annotations

from typing import Callable

State = tuple  # tuple of RingElements
Rhs = Callable[[float, State], State]
Monitor = Callable[[float, State], str | None]


def _axpy(y: State, k: State, c: float) -> State:
    return tuple(yi + c * ki for yi, ki in zip(y, k))


def rk4_step(f: Rhs, t: float, y: State, h: float) -> State:
    k1 = f(t, y)
    k2 = f(t + h / 2, _axpy(y, k1, h / 2))
    k3 = f(t + h / 2, _axpy(y, k2, h / 2))
    k4 = f(t + h, _axpy(y, k3, h))
    return tuple(yi + (h / 6) * (a + 2 * b + 2 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def rk4_path(f: Rhs, t0: float, y0: State, h: float, steps: int,
             monitor: Monitor | None = None
             ) -> tuple[list[State], str | None]:
    """Integrate ``steps`` RK4 steps; stop early if the monitor objects.

    Returns the list of states (including y0) and the truncation reason,
    or None if the full path was covered.
    """
    states = [y0]
    y = y0
    for i in range(steps):
        t = t0 + i * h
        y = rk4_step(f, t, y, h)
        if monitor is not None:
            reason = monitor(t + h, y)
            if reason is not None:
                return states, reason
        states.append(y)
    return states, None
