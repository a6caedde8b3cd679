"""The machine's current speed, from a fixed reference loop that uses only the stdlib.

On a shared 2-core virtual machine the same pure-Python work was measured to
take from 14 ms to 23 ms within one minute, in stretches of 10 s and more, so
a wall time alone says more about the neighbours than about coreinv. The
benchmark times a fixed reference between ops (exact Fraction products and an
int loop, the kind of work coreinv does) and scales each op's wall time by
REFERENCE_S / (the reference's current time), so times read as they would at
the reference speed. The reference does not touch coreinv, so a change to
coreinv cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# time of reference() at the reference speed; only fixes the scale of the reported times
REFERENCE_S = 0.004
# seconds of ops between two reference timings, and the window of timings used per op
EVERY_S = 0.25
WINDOW_S = 1.0

_rng = random.Random(0)
_M = [[Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(6)]
      for _ in range(6)]


def _reference():
    cols = list(zip(*_M))
    x = _M
    for _ in range(2):
        x = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in x]
    s = 0
    for i in range(20000):
        s += i * i % 7
    return x, s


def reference_time():
    """The reference's time now: the fastest of three back-to-back runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Reference timings taken along a run, to scale the wall times measured between them."""

    def __init__(self):
        self.stamps, self.times = [], []
        self.due = 0.0

    def maybe_sample(self):
        now = time.perf_counter()
        if now >= self.due:
            self.times.append(reference_time())
            self.stamps.append(now)
            self.due = time.perf_counter() + EVERY_S

    def factor(self, t):
        """REFERENCE_S over the median reference time within WINDOW_S of time t."""
        lo = bisect.bisect_left(self.stamps, t - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t + WINDOW_S)
        if lo == hi:
            i = min(max(bisect.bisect_left(self.stamps, t), 1), len(self.stamps)) - 1
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.times[lo:hi])
