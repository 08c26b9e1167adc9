"""Machine-speed probe for the benchmark workers.

On a shared virtual machine the same CPU-bound work can run a third slower
or faster from one minute to the next, and it flips between a fast and a
slow state within a second, while the process keeps its CPU the whole time:
neighbours contend for the cores' shared hardware.  Times taken minutes
apart then differ by more than any useful regression bound.

The probe samples that speed while the worker runs.  Every PERIOD_S of the
process's CPU time a SIGPROF handler times one fixed pure-Python chunk that
allocates nothing (so it can never start a garbage collection).  A sample's
rate is REFERENCE_CHUNK_S over the chunk's time: 1.0 at the reference
speed.  Samples are evenly spaced in CPU time, so the mean rate over an
interval is the factor that turns a time measured over it into the time at
the reference speed.  ``speed`` gives that factor for a range of samples,
``local_speeds`` for each of many short intervals from the samples taken
within WINDOW_S of it.  The chunks' own time is kept in ``spent`` so callers
can take it out of what they measure.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

PERIOD_S = 0.01
WINDOW_S = 0.2
# The chunk's typical time inside a busy worker on a shared 2.0 GHz Xeon
# vCPU with Python 3.11, so that normalised times read close to wall times
# there.
REFERENCE_CHUNK_S = 2.5e-4

_PERM = tuple((7 * i + 3) % 61 for i in range(61))


def chunk() -> int:
    """Fixed interpreter work: small ints only, so no object is allocated."""
    p = _PERM
    acc = 0
    r = 0
    while r < 60:
        k = 0
        while k < 61:
            acc ^= p[p[k]]
            k += 1
        r += 1
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.spent = 0.0  # seconds inside the chunk, summed
        self.ends = array("d")  # perf_counter at the end of each sample
        self.rates = array("d")  # REFERENCE_CHUNK_S / the sample's time

    @property
    def samples(self) -> int:
        return len(self.rates)

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        chunk()
        end = time.perf_counter()
        self.spent += end - start
        self.ends.append(end)
        self.rates.append(REFERENCE_CHUNK_S / (end - start))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def speed(self, first: int, last: int) -> float:
        """Mean rate of samples first..last-1."""
        if last <= first:
            raise ValueError("no speed sample in the interval")
        return sum(self.rates[first:last]) / (last - first)

    def local_speeds(self, intervals, fallback: float | None) -> list[float | None]:
        """Mean rate around each (start, end) perf_counter interval, from
        the samples that ended within WINDOW_S of it; ``fallback`` where
        none did."""
        speeds = []
        for start, end in intervals:
            lo = bisect_left(self.ends, start - WINDOW_S)
            hi = bisect_right(self.ends, end + WINDOW_S)
            speeds.append(self.speed(lo, hi) if hi > lo else fallback)
        return speeds
