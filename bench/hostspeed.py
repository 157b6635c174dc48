"""Host-speed calibration: fixed kernels timed between workload units.

The machines this benchmark runs on are shared, and their speed drifts
by up to 2x, over seconds to minutes, while CPU time keeps tracking
wall time (the cores themselves run slower, it is not descheduling).
Per-run medians cannot remove drift that lasts longer than a run, so
every worker times the kernels below every ``EVERY_S`` seconds between
units and reports each time scaled to a host on which one calibration
sample takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / median(samples nearest in time)

The kernels imitate the program's three kinds of host work — a tight
list/float loop like the vault drain, small-object and dict traffic like
the compiler and the scheduler, and short numpy calls like the
functional run — but share no code with it, so a change to the program
moves the reported metrics and never the calibration. Changing this
file changes every reported time: it is part of the benchmark's
definition.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

import numpy as np

#: One calibration sample on the reference host (a quiet machine of the
#: kind the benchmark was defined on), seconds.
REFERENCE_S = 3.4e-3

#: Calibrate at most this often while a workload runs, seconds.
EVERY_S = 0.1

#: Calibration samples on each side of a measured time that scale it.
NEAREST = 3

#: A phase too short for this many samples takes the rest at its end.
MIN_SAMPLES = 2 * NEAREST

_XS = [(i * 2654435761) & 1023 for i in range(1024)]
_A = np.arange(4096, dtype=np.float64)
_C = (np.arange(1024) + 1j).astype(np.complex64)


def _drain_loop(n: int = 6000) -> int:
    xs = _XS
    open_row = [-1] * 16
    ready = [0.0] * 16
    bus = 0.0
    hits = 0
    for i in range(n):
        b = xs[i & 1023] & 15
        r = xs[(i * 7) & 1023]
        if open_row[b] == r:
            hits += 1
            t = ready[b] if ready[b] > bus else bus
        else:
            open_row[b] = r
            t = bus + 13.75
        ready[b] = t + 2.5
        bus = t + 1.25
    return hits


class _Node:
    __slots__ = ("kind", "args", "value")

    def __init__(self, kind: str, args: tuple, value: float):
        self.kind = kind
        self.args = args
        self.value = value


def _object_loop(n: int = 1500) -> int:
    env: dict = {}
    out = []
    for i in range(n):
        node = _Node("op" + str(i & 7), (i, i + 1), float(i))
        key = (node.kind, node.args[0] & 63)
        env[key] = env.get(key, 0.0) + node.value
        if node.kind in ("op1", "op3"):
            out.append(key)
    return len(out) + len(env)


def _numpy_loop(n: int = 60) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.sum(_A * 1.5 + 2.0))
        s += float(abs(np.fft.fft(_C[:256])[1]))
    return s


def sample() -> float:
    """Time one calibration sample, seconds."""
    t0 = time.perf_counter()
    _drain_loop()
    _object_loop()
    _numpy_loop()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples spread over one timed phase."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []
        self._last = time.perf_counter()

    def _take(self) -> None:
        self.samples.append(sample())
        self._last = time.perf_counter()
        self.times.append(self._last)

    def tick(self) -> None:
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self._take()

    def scale_at(self, t: float) -> float:
        """Factor that maps a time measured around ``t`` to the
        reference host, from the ``2 * NEAREST`` samples closest in
        time (slowdowns come and go within a run)."""
        while len(self.samples) < MIN_SAMPLES:
            self._take()
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST, len(self.samples) - 2 * NEAREST))
        return REFERENCE_S / statistics.median(
            self.samples[lo:lo + 2 * NEAREST])
