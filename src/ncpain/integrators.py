"""Classical fixed-step 4th-order integration for tuples of RingElements."""

from __future__ import annotations

import operator
from typing import Callable

from .ring import _SCALAR_TYPES, MatrixElement, RingElement, _wrap

State = tuple  # tuple of RingElements
Rhs = Callable[..., State]
# (times, states) of a block -> None, or (first refused index, reason)
Monitor = Callable[[list, list], tuple[int, str] | None]
MONITOR_BLOCK = 64  # steps per monitor call


def _axpy(y: State, k: State, c: float) -> State:
    return tuple(yi + c * ki for yi, ki in zip(y, k))


def rk4_step(f: Rhs, t: float, y: State, h: float) -> State:
    """One classical RK4 step of y' = f(t, y), in ring operations."""
    k1 = f(t, y)
    k2 = f(t + h / 2, _axpy(y, k1, h / 2))
    k3 = f(t + h / 2, _axpy(y, k2, h / 2))
    k4 = f(t + h, _axpy(y, k3, h))
    return tuple(yi + (h / 6) * (a + 2 * b + 2 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def _refused(*args):
    raise TypeError("rk4_path records the right-hand side once: it may add, "
                    "subtract, multiply and scale states, not read values")


class _Time:
    """The time of the recorded step: rk4_step may offset it, no more."""

    def __add__(self, dt):
        return self

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refused


class _StandIn:
    """A value of the recorded step, regs[reg] of the tape (regs, ops); a ring
    operation appends (out, fn, a, b): regs[out] = fn(regs[a], regs[b])."""

    __slots__ = ("tape", "ring", "reg")
    inv = norm = singular_extremes = allclose = one_like = zero_like = \
        __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = \
        _refused

    def __init__(self, tape, ring, value=None):
        self.tape, self.ring, self.reg = tape, ring, len(tape[0])
        tape[0].append(value)

    def _op(self, fn, other, reflected=False):
        if isinstance(other, _SCALAR_TYPES):  # as RingElement reads c:
            if fn is not operator.matmul:  # c * one_like() in a sum
                self.one_like()
            fn, reflected = operator.mul, True
            other = _StandIn(self.tape, self.ring, complex(other))
        elif other.__class__ is _StandIn:
            self.ring._require_same_ring(other.ring)
        elif isinstance(other, RingElement):  # a constant, baked in
            self.ring._require_same_ring(other)
            other = _StandIn(self.tape, self.ring, other.data)
        else:
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        out = _StandIn(self.tape, self.ring)
        self.tape[1].append((out.reg, fn, a.reg, b.reg))
        return out

    def __add__(self, other): return self._op(operator.add, other)
    def __radd__(self, other): return self._op(operator.add, other, True)
    def __sub__(self, other): return self._op(operator.sub, other)
    def __rsub__(self, other): return self._op(operator.sub, other, True)
    def __mul__(self, other): return self._op(operator.matmul, other)
    def __rmul__(self, other): return self._op(operator.matmul, other, True)
    def __neg__(self): return self._op(lambda a, _: -a, self)


def rk4_path(f: Rhs, t0: float, y0: State, h: float, steps: int,
             monitor: Monitor | None = None,
             drive: Callable[[float], RingElement] | None = None
             ) -> tuple[list[State], str | None]:
    """Integrate ``steps`` RK4 steps; stop early if the monitor objects.

    With a ``drive`` (time -> ring element), f is f(t, y, drive(t)).  Over
    ``MatrixElement`` states one rk4_step is recorded on stand-ins that log
    each ring operation, then replayed on the arrays of every step: the
    same numpy operations in the same order, so the same bits.  f raises
    TypeError where it would bake a value of the state or the time into
    the log: ``inv``, ``norm``, ``singular_extremes``, ``allclose``,
    ``one_like``, ``zero_like``, ``bool`` and comparisons.

    The monitor sees MONITOR_BLOCK steps at a time (fewer in the last
    block): their times ``t0 + i*h + h`` and states.  It returns None, or
    the index of the first refused state in the block and the reason; the
    path then ends just before that state and drops the rest of the block
    (silencing the floating-point warnings it may raise is up to the caller).

    Returns the list of states (including y0) and the truncation reason,
    or None if the full path was covered.
    """
    if steps and all(el.__class__ is MatrixElement for el in y0):
        tape = regs, ops = [], []
        y_in = [_StandIn(tape, el) for el in y0]
        u_in = []  # the drive at each evaluation of f

        def f_driven(t, y):
            u_in.append(_StandIn(tape, y0[0]))
            return f(t, y, u_in[-1])

        y_out = rk4_step(f if drive is None else f_driven, _Time(),
                         tuple(y_in), h)

        def step(t, y):
            for x, el in zip(y_in, y):
                regs[x.reg] = el.data
            for x, tk in zip(u_in, (t, t + h / 2, t + h / 2, t + h)):
                u = drive(tk)  # at rk4_step's stage times
                y[0]._require_same_ring(u)
                regs[x.reg] = u.data
            for r, fn, a, b in ops:
                regs[r] = fn(regs[a], regs[b])
            return tuple(_wrap(regs[x.reg]) for x in y_out)
    else:
        rhs = f if drive is None else (lambda t, y: f(t, y, drive(t)))
        step = lambda t, y: rk4_step(rhs, t, y, h)

    states, y = [y0], y0
    for lo in range(0, steps, MONITOR_BLOCK):
        block = range(lo, min(lo + MONITOR_BLOCK, steps))
        ys = [y := step(t0 + i * h, y) for i in block]
        refused = None if monitor is None else \
            monitor([t0 + i * h + h for i in block], ys)
        if refused is not None:
            k, reason = refused
            return states + ys[:k], reason
        states += ys
    return states, None
