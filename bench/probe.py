"""Probe-normalized timing for a machine whose speed changes under other tenants' load.

On a shared machine the same single-threaded work can take 0.8x to 1.7x its
median time within seconds, as neighbours load the physical cores; the CPU
time of the process moves with the wall time, so neither clock is steady.
ProbeClock samples the machine's current speed: an interval timer interrupts
the run every PERIOD seconds and times a fixed probe (a short pure-Python
loop). The normalized duration of an interval is each stretch between probes
scaled by FULL_SPEED_PROBE_S over the probe time measured at the stretch's
end (the median of that probe and its two neighbours), with the probes' own
time left out. A change to the program moves normalized time as it moves
wall time; a slowdown of the machine slows the probe as well and largely
cancels. Normalized times are therefore seconds at the probe speed
FULL_SPEED_PROBE_S, the probe's time on an unloaded core of the machine the
benchmark was defined on (Intel Xeon, 2.1 GHz).
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

PERIOD = 0.01
FULL_SPEED_PROBE_S = 72e-6


def _probe() -> float:
    s = 0.0
    d = {}
    for i in range(300):
        s += math.sqrt(i + s % 7.0)
        d[i & 31] = [s, i]
    return s


class ProbeClock:
    """Collects probe samples while running; converts intervals afterwards."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "ProbeClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _speed(self, i: int) -> float:
        """Full-speed probe time over the probe time around sample i (1.0 at full speed)."""
        around = range(max(0, i - 1), min(len(self.starts), i + 2))
        return FULL_SPEED_PROBE_S / statistics.median(self.ends[j] - self.starts[j] for j in around)

    def seconds(self, start: float, end: float) -> float:
        """Normalized duration of [start, end], an interval timed with perf_counter."""
        n = len(self.starts)
        if n == 0:
            return end - start
        i = bisect.bisect_left(self.starts, start)
        total = 0.0
        t = start
        while i < n and self.starts[i] < end:
            total += (self.starts[i] - t) * self._speed(i)
            t = self.ends[i]
            i += 1
        return total + (end - t) * self._speed(min(i, n - 1))
