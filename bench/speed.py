"""Machine speed, measured with fixed calibration tasks.

The benchmark runs on shared machines whose speed moves by half or more
within minutes, because of other tenants.  Every timed stretch is therefore
bracketed by a calibration task that is not part of the package, and a time
is reported in reference seconds: the measured seconds times a reference
duration over the calibration's measured duration beside it.  Outside load
slows the calibration and the package alike, so the ratio holds where raw
seconds do not.  A change to the package does not change the calibration.

- Ops inside a worker process are bracketed by calibration rounds in the
  same process (``round_s``, ``Sampler``): churn of a dict with frozenset
  keys and Fraction values, and a pointer chase through a table larger than
  a core's cache.
- Whole processes (set-up, CLI invocations) are bracketed by starts of a bare
  interpreter, ``python -c pass``, which load the machine as a process start
  does.  ``run.py`` runs these.
"""

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_S = 0.0025  # one calibration round on the reference machine
REF_START_S = 0.08  # one bare interpreter start on the reference machine
_TABLE = []


def round_s():
    """Seconds that one calibration round takes now.  The garbage collector
    is off during the round, so the size of the package's heap does not enter
    it."""
    if not _TABLE:
        order = list(range(1 << 16))
        random.Random(0).shuffle(order)
        _TABLE.extend(order)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = {}
        for i in range(600):
            key = (i % 97, frozenset((i % 13, i % 17, i % 19, i % 23)))
            acc[key] = acc.get(key, 0) + Fraction(1, 1 + i % 29)
        j = 0
        for _ in range(1500):
            j = _TABLE[j]
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(ref, samples):
    """Reference seconds per measured second, given the reference duration
    of a calibration and its measured durations beside a stretch."""
    return ref / statistics.mean(samples)


class Sampler:
    """Calibration rounds while a pass runs: one before it, one after it and
    one every ``every`` seconds from a timer signal, so that a long op is
    sampled throughout and not only at its ends."""

    def __init__(self, every=0.05):
        self.every = every
        self.rounds = []  # (entered, left, round seconds)
        self._old = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        d = round_s()
        self.rounds.append((t0, perf_counter(), d))

    def start(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def rescale(self, spans):
        """For each op's (start, end): its seconds without the rounds that
        interrupted it, and its factor to reference seconds from those rounds
        and the nearest one on either side."""
        entered = [r[0] for r in self.rounds]
        times, scale = [], []
        for t0, t1 in spans:
            lo = max(bisect_right(entered, t0) - 1, 0)
            hi = min(bisect_left(entered, t1), len(entered) - 1)
            inside = self.rounds[lo + 1:hi]
            times.append(t1 - t0 - sum(b - a for a, b, _ in inside))
            scale.append(factor(REF_S, [r[2] for r in self.rounds[lo:hi + 1]]))
        return times, scale
