"""A fixed reference kernel that tracks the speed of the machine over time.

The benchmark's host is shared: the same pure-Python work can take 10 to
30 percent longer from one quarter-minute to the next. The kernel does
the kinds of work sphmach's hot loops do (free reduction on a list of
signed letters, small-tuple dictionary keys, building and sorting
tuples, exact rational arithmetic) and takes about 1.5 ms. Timing it at
short intervals during a run gives the machine's speed around each
operation; a raw time t is reported as t * NOMINAL_S / (kernel time),
i.e. in seconds at the speed at which the kernel takes exactly
NOMINAL_S.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 0.0015

_RNG = random.Random(0)
_LETTERS = tuple(_RNG.choice((1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(2500))
_PERMS = [tuple(_RNG.sample(range(64), 64)) for _ in range(8)]
_FRACTIONS = [Fraction(_RNG.randint(1, 50), _RNG.randint(1, 50)) for _ in range(40)]


def kernel():
    out: list[int] = []
    seen = {}
    for i, x in enumerate(_LETTERS):
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
        seen[(x, i & 63)] = len(out)
    encodings = sorted(tuple(p[(i * 7 + j) % 64] for j in range(64))
                       for p in _PERMS for i in range(4))
    acc = Fraction(0)
    for a in _FRACTIONS:
        acc = acc * a + _FRACTIONS[0]
    return tuple(out), len(seen), encodings[0], acc


def kernel_time(repeats: int = 5) -> float:
    """Median time of a few back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[repeats // 2]


class SpeedProbe:
    """Times the kernel right before and right after each operation, and
    on a SIGALRM timer inside long ones.

    ``stolen`` is the total time spent in the timer handler, so that
    callers can subtract it from the operations it interrupted."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.times = array("d")
        self.ratios = array("d")    # NOMINAL_S / kernel time
        self.stolen = 0.0
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:      # the timer fired during a sample
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.ratios.append(NOMINAL_S / (t1 - t0))
        self.stolen += perf_counter() - t0
        self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float, margin: float = 0.05) -> float:
        """Mean of NOMINAL_S / kernel time over the samples taken from
        margin seconds before t0 to margin seconds after t1 (the samples
        next to the operation and inside it): the factor that turns a raw
        time in [t0, t1] into nominal-speed seconds."""
        lo = bisect_left(self.times, t0 - margin)
        hi = bisect_right(self.times, t1 + margin)
        window = self.ratios[lo:hi]
        if not window:
            window = self.ratios
        return sum(window) / len(window)
