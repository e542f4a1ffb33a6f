"""The host's speed, sampled through a fixed pure-Python reference unit.

The benchmark runs on a few virtual cores of a shared host, whose speed
swings by up to 1.5x for seconds at a time and drifts by as much over
minutes (`time.process_time()` tracks wall time throughout, so the
process is not descheduled: the core itself runs slower).  No hardware
counters are exposed.  So while it runs, a `HostSpeed` times a fixed
reference unit every `PERIOD_S` seconds from a timer signal, which
Python handles in the main thread between bytecodes, in the middle of a
check as well as between checks.  run.py takes the sampling time out of
each measured interval and scales what is left to a host on which the
unit takes `NOMINAL_S`.

The unit does the kinds of work a check does, in the same interpreter:
bit operations on Python integers (the subset search), and building and
probing sets and dicts of small tuples (relations and graphs).  It
touches no `mmcheck` code, so a change to the program moves the scaled
times and a change of host speed does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: A scaled time is the time the host would take if the reference unit
#: took this long: about its median time on the 2-vCPU machine the
#: benchmark was written on.
NOMINAL_S = 0.0004

#: Interval of the timer signal that samples the unit.
PERIOD_S = 0.05


def reference_unit() -> int:
    mask = 0
    acc = 0
    for i in range(600):
        mask = ((mask << 1) | (i & 1)) & 0xFFFFFF
        acc ^= (mask & -mask) | (mask >> 3)
    pairs = set()
    succ: dict[int, list[int]] = {}
    for i in range(300):
        j = (i * 37) % 301
        pairs.add((i, j))
        succ.setdefault(i & 63, []).append(j)
    hits = sum(1 for i in range(300) if ((i * 37) % 301, i) in pairs)
    return acc + len(pairs) + len(succ) + hits


class HostSpeed:
    """Samples the unit from SIGALRM between `start()` and `stop()`."""

    def __init__(self):
        #: (mid-time, duration) of each sample, sorted by time.
        self.samples: list[tuple[float, float]] = []
        #: Total time spent in the signal handler so far.  A measured
        #: interval subtracts the growth of this over the interval.
        self.busy_s = 0.0
        self._in_handler = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler()  # so that every interval has a sample before it
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler()  # and a sample after it

    def _handler(self, *_) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        enter = time.perf_counter()
        # Without the collector, whose passes depend on the heap the
        # program left behind.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_unit()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(((start + end) / 2, end - start))
        self.busy_s += time.perf_counter() - enter
        self._in_handler = False

    def factor(self, start: float, end: float) -> float:
        """How much faster the host of `NOMINAL_S` is than this one was
        over [start, end]: the mean over the samples from the last one
        before `start` to the first one after `end`."""
        lo = bisect.bisect_right(self.samples, (start,)) - 1
        hi = bisect.bisect_left(self.samples, (end,)) + 1
        near = self.samples[max(lo, 0):hi]
        return statistics.fmean(NOMINAL_S / d for _, d in near)

    def median_unit_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
