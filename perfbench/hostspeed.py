"""Host speed probes, for timings that move less with the host's load.

The machines this benchmark runs on share their cores. Within a few minutes
the same pure-Python work ran 25-35% slower or faster, in stretches of
seconds, with no other process of the run competing (2-core x86 VM). Raw
times of two runs minutes apart differ by more than any bound worth setting.

Between operations, outside the timed regions, a run times a fixed piece of
pure-Python work much like the package's inner loops (bit scans over integer
masks), at most every PROBE_EVERY_S seconds. Each timing is then divided by
the host's slowdown at that moment: the median probe time within
PROBE_WINDOW_S of the timed stretch, over REFERENCE_S. Results read as
seconds on a host where the probe takes exactly REFERENCE_S. On a 90 s test
on that VM, this narrowed the range of 15 s block means from 20% to 11% for
exact_boxicity on C8, and from 18% to 14% for survey rows.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Probe time that defines reference speed (about this host at its fastest).
REFERENCE_S = 0.002
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.15


def reference_work(n: int = 700) -> int:
    acc = 0
    for i in range(1, n):
        mask = (i * 0x9E3779B1) & 0xFFFFFFFFFFFF
        while mask:
            low = mask & -mask
            acc ^= low.bit_length()
            mask ^= low
    return acc


class Probes:
    """Probe times of one stretch of a run, keyed by when they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def take(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over [start, end]: median probe time within the
        window around it, over REFERENCE_S; the nearest probe if none."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        if lo == hi:
            mid = (start + end) / 2
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            hi = lo + 1
        return statistics.median(self.took[lo:hi]) / REFERENCE_S
