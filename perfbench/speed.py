"""Machine-speed sampling, so that timings survive a noisy host.

On a shared 2-core VM the same pure-Python loop runs up to 2x slower in
some stretches than in others (neighbours on the same physical cores), and
the stretches last seconds to minutes.  A 20 s sweep timed twice can then
differ by 25% with nothing changed.  So each worker samples its own speed
while it runs: a timer signal runs a fixed probe loop every INTERVAL_S, in
the same thread as the workload, and records how long the probe took.

A timing is reported in reference seconds: its wall time scaled by
REFERENCE_PROBE_S / (mean probe time of the samples taken during it).  A
change that makes the library faster lowers the scaled time as it lowers the
wall time; a slow stretch of the host raises both the wall time and the
probe time, and mostly cancels out.  On the machine the benchmark was
written on, this cut the spread of a workload's total time between repeated
runs from about 15% to 3-9%.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.025
PROBE_ITERATIONS = 10_000
# fixes the unit of the reported timings: a reference second is a second on
# a core where the probe takes 1 ms (it takes 0.6 to 1.4 ms on the 2-core
# Xeon VM the benchmark was written on)
REFERENCE_PROBE_S = 1.0e-3
MIN_SAMPLES = 5


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the probe on a timer while started; maps intervals of wall
    time to reference seconds."""

    def __init__(self):
        self.stamps: list[float] = []
        self.probes: list[float] = []

    def sample(self, *_signal_args) -> None:
        took = probe()
        self.stamps.append(time.perf_counter())
        self.probes.append(took)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the mean probe time of the samples taken
        within [start, end], widened to the MIN_SAMPLES nearest in time for
        an interval too short to hold that many."""
        stamps, n = self.stamps, len(self.stamps)
        if n == 0:
            raise ValueError("no speed samples")
        lo, hi = bisect_left(stamps, start), bisect_right(stamps, end)
        while hi - lo < min(MIN_SAMPLES, n):
            if hi == n or (lo > 0 and start - stamps[lo - 1] <= stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_PROBE_S * (hi - lo) / sum(self.probes[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] of perf_counter time in reference seconds."""
        return (end - start) * self.factor(start, end)
