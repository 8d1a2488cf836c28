"""Classical fixed-step 4th-order integration for tuples of RingElements."""

from __future__ import annotations

from typing import Callable

State = tuple  # tuple of RingElements
Rhs = Callable[[float, State], State]
# (times, states) of a block -> None, or (first refused index, reason)
Monitor = Callable[[list, list], tuple[int, str] | None]
MONITOR_BLOCK = 64  # steps per monitor call


def _axpy(y: State, k: State, c: float) -> State:
    c = complex(c)
    return tuple(yi._add_scaled(c, ki) for yi, ki in zip(y, k))


def rk4_step(f: Rhs, t: float, y: State, h: float) -> State:
    """One classical RK4 step of y' = f(t, y).

    Each stage combination, ``y + c*k`` and ``y + (h/6)(k1 + 2 k2 + 2 k3 +
    k4)``, is one ring call per state component (``_add_scaled`` and
    ``_rk4_update``), computing what the operator expression would.
    """
    k1 = f(t, y)
    k2 = f(t + h / 2, _axpy(y, k1, h / 2))
    k3 = f(t + h / 2, _axpy(y, k2, h / 2))
    k4 = f(t + h, _axpy(y, k3, h))
    c = complex(h / 6)
    return tuple(yi._rk4_update(c, a, b, cc, d)
                 for yi, a, b, cc, d in zip(y, k1, k2, k3, k4))


def rk4_path(f: Rhs, t0: float, y0: State, h: float, steps: int,
             monitor: Monitor | None = None
             ) -> tuple[list[State], str | None]:
    """Integrate ``steps`` RK4 steps; stop early if the monitor objects.

    The monitor sees MONITOR_BLOCK steps at a time (the last block may be
    shorter): the times ``t0 + i*h + h`` and the states reached at them.
    It returns None, or the index of the first refused state in the block
    and the reason; the path then ends just before that state.  The steps
    after it in the block are discarded; silencing the floating-point
    warnings they may raise is up to the caller.

    Returns the list of states (including y0) and the truncation reason,
    or None if the full path was covered.
    """
    states = [y0]
    y = y0
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
