"""Machine-speed probe: cancels the slowdown that other tenants of a shared
CPU cause.

On a shared core the same work can take twice as long for tens of seconds.
While a ``SpeedProbe`` is active, a SIGALRM handler runs every ``INTERVAL_S``
and times two fixed loops: small numpy operations with Python glue (the mix
the tape runs), which slow when the core is shared, and a pass over 8 MB of
arrays, which slows when the cache and memory are. The benchmark's work
slows with both, so ``factor()`` takes the geometric mean of the two
slowdowns, and a time divided by it over the same interval reads as it
would on an uncontended machine. ``net()`` removes the probe's own time from
an interval.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
NEAREST = 9  # probes that judge an interval shorter than NEAREST periods
# The two loops' durations on an uncontended 2-vCPU x86-64 container
# (Python 3.11, numpy 2.4, one OpenBLAS thread).
NOMINAL_COMPUTE_S = 6.0e-4
NOMINAL_MEMORY_S = 6.0e-4

_W = np.random.default_rng(0).standard_normal((64, 64)) * 0.1
_X = np.ones((64, 1))
_BIG = np.ones(512 * 1024)
_BIG_OUT = np.empty_like(_BIG)


def compute_loop() -> None:
    h = _X
    for _ in range(60):
        z = 1.0 / (1.0 + np.exp(-(_W @ h)))
        h = np.tanh(_W @ (z * h)) + 0.5 * h
        [float(v) for v in h[:16, 0]]


def memory_loop() -> None:
    np.multiply(_BIG, 1.0001, out=_BIG_OUT)
    _BIG_OUT.sum()


class SpeedProbe:
    """Samples the probe loop while active; marks bound measured intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, compute, memory)
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        compute_loop()
        middle = perf_counter()
        memory_loop()
        end = perf_counter()
        self.samples.append((start, middle - start, end - middle))
        self.spent_s += end - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.spent_s

    def net(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall time between two marks minus the probe's own time."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def factor(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """How much slower than nominal the core ran between two marks: the
        median probe inside the interval, or of the ``NEAREST`` probes around
        its middle when it holds fewer. Call it once probes after ``end``
        exist, so a short interval is judged from both sides."""
        while len(self.samples) < NEAREST:  # a run shorter than NEAREST periods
            self._tick(signal.SIGALRM, None)
        starts = [s for s, _, _ in self.samples]
        lo = bisect.bisect_left(starts, begin[0])
        hi = bisect.bisect_right(starts, end[0])
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(starts, 0.5 * (begin[0] + end[0]))
            lo = min(max(mid - NEAREST // 2, 0), len(starts) - NEAREST)
            hi = lo + NEAREST
        window = self.samples[lo:hi]
        compute = statistics.median(c for _, c, _ in window) / NOMINAL_COMPUTE_S
        memory = statistics.median(m for _, _, m in window) / NOMINAL_MEMORY_S
        return math.sqrt(compute * memory)
