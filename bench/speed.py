"""Correct timings for the speed of a shared machine.

On the reference machine (a 2-core VM on a shared host), a fixed
pure-Python loop took anywhere from 65 to 120 ms per run, changing from
one tenth of a second to the next. CPU time moved with wall time, so
the slowdown is in the core, not in scheduling. One fixed `closure`
call, repeated for 40 s, had a median time per 2 s bucket that spread by
27-49 % (IQR over median). Scaled as below, it spread by about 4 %.

``SpeedProbe`` samples the machine's speed while the program runs. A
timer signal every ``INTERVAL_S`` seconds runs a short fixed loop in the
same thread and records how long the loop took. A call's time is then
scaled to the reference speed, at which the loop takes
``REFERENCE_PROBE_S``:

    scaled = (wall - probe time inside the call) * mean(REFERENCE_PROBE_S / probe time)

The mean is over the samples taken during the call. For a call shorter
than ``WINDOW_S``, it is over the samples in the window of that length
centred on the call.

The loop runs between the program's bytecodes and shares its caches. A
change that makes the program thrash the caches therefore slows the
probe a little too, and hides a small part of its own slowdown.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Probe loop time that defines the reference speed, close to its time
#: between program calls on a 2-core Intel Xeon VM with Python 3.11.7.
REFERENCE_PROBE_S = 100e-6
INTERVAL_S = 0.005
WINDOW_S = 0.5


_TABLE = {i: i * 2654435761 & 0xFFFF for i in range(64)}
_SETS = [frozenset(range(i % 29, i % 29 + 6)) for i in range(64)]
_WIDE = frozenset(range(32))


def _mix(a: int, b: int) -> int:
    return ((a ^ b) * 31) & 0xFFFF


def _probe_loop() -> int:
    """A fixed mix of what the program spends its time on (calls, dict
    lookups, frozenset subset and membership tests, integer bit
    operations) that makes no garbage-collected allocation, so that it
    never triggers a collection of the program's heap."""
    table, sets, wide = _TABLE, _SETS, _WIDE
    acc = 0
    for i in range(240):
        members = sets[i & 63]
        if members <= wide:
            acc += 1
        acc = _mix(acc, table[i & 63])
        if (i & 31) in members:
            acc ^= i
    return acc


class SpeedProbe:
    """Samples the probe loop on a timer while the ``with`` block runs."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the probe, to subtract

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        duration = time.perf_counter() - start
        self.stamps.append(start)
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that converts time in [start, end] to reference speed.

        Samples come at even steps of wall time, and the work done in a
        step is proportional to the speed, 1 / probe time.  So the mean
        of REFERENCE_PROBE_S / probe time is the work per unit of wall
        time, which a median would misjudge when the speed jumps between
        a fast and a slow level.
        """
        middle = (start + end) / 2
        low = bisect.bisect_left(self.stamps, min(start, middle - WINDOW_S / 2))
        high = bisect.bisect_right(self.stamps, max(end, middle + WINDOW_S / 2))
        window = self.durations[low:high] or self.durations
        return statistics.fmean(REFERENCE_PROBE_S / d for d in window)


class Span:
    """Start, end and probe time of one timed stretch."""

    __slots__ = ("start", "end", "probe_s")

    def __init__(self, probe: SpeedProbe | None):
        self.start = time.perf_counter()
        self.probe_s = -probe.spent if probe else 0.0

    def close(self, probe: SpeedProbe | None) -> "Span":
        self.end = time.perf_counter()
        if probe:
            self.probe_s += probe.spent
        return self

    @property
    def wall(self) -> float:
        return self.end - self.start - self.probe_s

    def scaled(self, probe: SpeedProbe | None) -> float:
        return self.wall * probe.scale(self.start, self.end) if probe else self.wall
