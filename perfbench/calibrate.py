"""A fixed unit of stdlib-only reference work, timed to gauge machine speed.

On a shared box the same instructions can run at half speed for a fraction
of a second whenever a neighbour loads the core, so two runs of identical
code may differ by 50%.  The worker times a segment of reference units
before the first operation of a pass and after every operation, and a
``Sampler`` times one unit every 0.05 s of processor time while an
operation runs.  ``run.py`` divides each operation's wall time, less the
sampled units, by the mean time per unit seen around and during it.  The
work mixes what modiag's inner loops do: tuple keys, dict folding, gcd and
Fraction arithmetic.  It never touches modiag, so no change to modiag can
move it.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

# Wall time of one unit on a calm 2-core Xeon (2.0 GHz) with Python 3.11.
# Scaled timings read as seconds on that machine when calm.
UNIT_S = 0.004
SEGMENT_UNITS = 5
SAMPLE_EVERY_S = 0.05


def reference_work() -> int:
    acc: dict = {}
    for i in range(1, 1500):
        key = (i % 7, i % 11, (i * i) % 13)
        acc[key] = acc.get(key, 0) + Fraction(math.gcd(i, 360), 1 + i % 5)
        if not acc[key]:
            del acc[key]
    return len(acc)


def segment() -> float:
    """Wall time of SEGMENT_UNITS units of reference work."""
    start = time.perf_counter()
    for _ in range(SEGMENT_UNITS):
        reference_work()
    return time.perf_counter() - start


class Sampler:
    """Times one unit of reference work every SAMPLE_EVERY_S of processor
    time, from a SIGPROF handler, while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        return self.samples
