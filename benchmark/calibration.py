"""Host-speed calibration: pass times in seconds at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x within seconds as other tenants come and go. On a 2-vCPU cloud VM a
fixed loop of small numpy and list work took anywhere from 9 to 18 ms on the
same vCPU a few seconds apart, and the two vCPUs changed speed
independently. Averaging over longer runs does not remove it, because the
slow phases last for seconds to minutes.

So the benchmark measures the host's speed while it measures the program. A
``Sampler`` interrupts the main thread every ``PERIOD`` seconds (SIGALRM)
and times ``kernel()``, a fixed mix of the work the program does: complex
dict-polynomial products (as in ``moyal``), products, sums and inverses of
3x3 complex matrices wrapped in objects (as in ``ring``) and a scalar float
recurrence (as in ``integrators``). The kernel uses numpy and the standard
library only, never ``ncpain``, so no change to the program moves it.
``normalized`` then converts a pass's wall time, minus the kernel's own
time, into reference seconds: each stretch between two samples is scaled by
``REFERENCE_S`` over the kernel time measured around it (the median of the
nearest ``SMOOTH`` samples). A program change that does less work shortens
the stretches and lowers the figure exactly as it lowers wall time; a slow
phase of the host lengthens both the stretches and the kernel, and cancels.

The raw wall times are kept in the result record next to the normalized
ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Kernel time, in seconds, that defines reference speed: about the kernel's
# time in the host's fast phases on a 2-vCPU x86-64 cloud VM.  Reference
# seconds are wall seconds on a host that runs the kernel this fast.
REFERENCE_S = 1.1e-3
PERIOD = 0.1       # seconds between samples; the kernel adds about 1-2%
SMOOTH = 5         # samples in the running median of the kernel time

_MATRIX = np.array([[1.0, 0.2j, 0.1], [0.3, 1.1, 0.2j], [0.1j, 0.4, 0.9]])
_POLY = {(i, j): complex(1.0 / (1 + i + j), 0.1 * (i - j))
         for i in range(11) for j in range(11) if i + j <= 10}


class _Element:
    """A small matrix wrapped in an object, as a ring element is."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(arr.shape)
        arr.setflags(write=False)
        self.data = arr

    def __add__(self, other):
        if not isinstance(other, _Element):
            return NotImplemented
        return _Element(self.data + other.data)

    def __mul__(self, other):
        if not isinstance(other, _Element):
            return NotImplemented
        return _Element(self.data @ other.data)

    def inv(self):
        singular = np.linalg.svd(self.data, compute_uv=False)
        if singular[-1] <= 1e-12 * singular[0]:
            raise ZeroDivisionError("singular")
        return _Element(np.linalg.inv(self.data))


_ELEMENT = _Element(_MATRIX * 0.5)


def kernel() -> complex:
    """A fixed mix of dict, complex, small-matrix and float work."""
    out = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _POLY.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0j) + x * y
    acc = out[(0, 0)]
    m = _ELEMENT
    for i in range(24):
        m = m * _ELEMENT + _ELEMENT
        if i % 8 == 0:
            m = m.inv()
    acc += complex(m.data[0, 0])
    y = 0.1
    for _ in range(600):
        y += 0.001 * (y * (1.0 - y) - 0.5 * y)
    return acc + y


class Sampler:
    """Times ``kernel()`` every ``PERIOD`` seconds while it is running.

    ``samples`` holds (start, duration) pairs in perf_counter seconds.
    """

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        for _ in range(SMOOTH):  # warm the kernel and seed the median
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(SMOOTH):  # so the last pass has samples after it
            self._sample(None, None)
        return False

    def _smoothed(self) -> list:
        durations = [d for _, d in self.samples]
        half = SMOOTH // 2
        return [statistics.median(durations[max(0, i - half):i + half + 1])
                for i in range(len(durations))]

    def normalized(self, intervals) -> list:
        """Reference seconds of each (start, end) interval, kernel excluded.

        A stretch of work between samples is scaled by the smoothed kernel
        time of the sample that ends it (of the last sample before the
        interval's end, for the stretch after it).
        """
        smoothed = self._smoothed()
        starts = [t for t, _ in self.samples]
        result = []
        for start, end in intervals:
            total, cursor, last = 0.0, start, smoothed[0]
            for (t, d), speed in zip(self.samples, smoothed):
                if t < start:
                    last = speed
                    continue
                if t >= end:
                    break
                total += (t - cursor) / speed
                cursor, last = t + d, speed
            if cursor < end:
                after = next((s for t, s in zip(starts, smoothed)
                              if t >= end), last)
                total += (end - cursor) / ((last + after) / 2)
            result.append(total * REFERENCE_S)
        return result


def speed_factor(repeats: int = SMOOTH) -> float:
    """Median kernel time now over ``REFERENCE_S``: 1 at reference speed."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_S
