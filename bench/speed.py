"""Machine speed, measured beside the operations, and times scaled by it.

The benchmark runs on shared machines whose speed changes by up to 1.8x
within a minute, for every process alike: the same operation runs at one of
a few speeds, for stretches of seconds to minutes.  Wall-clock times spread
across runs by more than the changes the benchmark has to resolve.  So a
run also times a fixed piece of pure-Python work, the calibration, about
every ``EVERY_S`` seconds between operations, and scales the time of each
operation to the reference speed by the calibration samples taken around it:

    scaled = wall * REF_S / median(the NEIGHBOURS samples nearest in time)

The calibration lives in the benchmark and does not call localring, so a
change to the program moves the scaled time exactly as it moves the wall
time.  What the scaling takes out is how fast the machine ran at the moment.
The calibration is a sparse product of two bivariate polynomials with
``Fraction`` coefficients in dicts keyed by exponent tuples, the same kind
of work as localring's own inner loops.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: seconds one calibration sample takes on the reference machine
REF_S = 0.004
#: a calibration sample is taken once this much time has passed since the last
EVERY_S = 0.1
#: calibration samples whose median scales one operation
NEIGHBOURS = 9

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_B = {(i, j): Fraction(j - 3, i + 1) for i in range(5) for j in range(5)}


def sample() -> tuple:
    """One calibration sample: (its midpoint on the perf_counter clock,
    the seconds it took)."""
    t0 = time.perf_counter()
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Sampler:
    """Takes a calibration sample when the last one is `EVERY_S` old."""

    def __init__(self):
        self.samples: list = []
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(sample())
            self._last = time.perf_counter()


def factor(samples: list) -> float:
    """REF_S over the median duration of `samples`."""
    return REF_S / statistics.median(seconds for _, seconds in samples)


def factors(samples: list, midpoints: list) -> list:
    """For each time in `midpoints`, the factor of the `NEIGHBOURS`
    calibration samples nearest to it.  `samples` is in time order."""
    times = [t for t, _ in samples]
    out = []
    for mid in midpoints:
        lo = hi = bisect.bisect_left(times, mid)
        while hi - lo < min(NEIGHBOURS, len(samples)):
            if lo > 0 and (hi == len(samples) or mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        out.append(factor(samples[lo:hi]))
    return out
