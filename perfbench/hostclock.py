"""Host-speed-normalised time for the benchmark's timings.

The benchmark runs on shared hosts whose CPU speed swings by a third within
seconds and for minutes at a time, with load from outside the process; the
process's CPU time swings just as much, so it cannot be taken out by
measuring CPU time instead of wall time.  ``HostClock`` measures the host's
speed beside the timed work instead: a fixed calibration kernel (exact
``Fraction`` elimination on a seeded matrix, the same mix of interpreter
work and big-integer gcds as the library's LP kernel) runs between segments
of about ``INTERVAL_S`` of work, and each segment's wall time is scaled by
``REFERENCE_S / (kernel time around the segment)``.

A normalised time is therefore "seconds on a host where the kernel takes
``REFERENCE_S``", which is what the kernel took on the 2-core host the
benchmark was written on (Python 3.11, ``Fraction`` backend) at full
speed.  The kernel never calls the library, so no change to the library
moves it.  It always uses ``fractions.Fraction``, whatever backend the
library's ``Q`` is; ``compare.py`` refuses to compare runs whose backends
differ.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

REFERENCE_S = 0.0017  # the kernel's time on the reference host at full speed
INTERVAL_S = 0.02  # work between two calibrations: the kernel adds ~8%
WINDOW = 2  # calibrations on either side that smooth one
SIZE = 8

_rng = random.Random("perfbench/hostclock")
_MATRIX = [
    [Fraction(_rng.getrandbits(32) - 2**31, _rng.getrandbits(16) + 1) for _ in range(SIZE)]
    for _ in range(SIZE)
]


def kernel() -> Fraction:
    """The determinant of the seeded matrix by exact Gaussian elimination."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(SIZE):
        p = next(r for r in range(c, SIZE) if a[r][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, SIZE):
            m = a[r][c] * inv
            if m:
                a[r] = [x - m * y for x, y in zip(a[r], a[c])]
    return det


EXPECTED = kernel()


def calibrate(repeats: int = 1) -> float:
    """Wall seconds of one kernel run, the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        det = kernel()
        times.append(perf_counter() - t0)
        assert det == EXPECTED
    return statistics.median(times)


class HostClock:
    """Splits timed work into segments and scales each by the host's speed.

    ``segment_due()`` says when the current segment has run ``INTERVAL_S``;
    ``close()`` ends it and calibrates.  ``factors()`` then gives, per
    segment, the factor that turns its wall time into normalised time.  Each
    calibration is replaced by the median of the ``2 * WINDOW + 1`` around
    it, so that a kernel run slowed by an interrupt does not skew the
    segments beside it; a segment's factor uses the calibrations on either
    side of it.
    """

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats  # kernel runs per calibration
        self.samples: List[float] = [calibrate(repeats)]
        self.walls: List[float] = []  # wall seconds of each closed segment
        self.started = perf_counter()

    def segment_due(self) -> bool:
        return perf_counter() - self.started >= INTERVAL_S

    def close(self) -> None:
        self.walls.append(perf_counter() - self.started)
        self.samples.append(calibrate(self.repeats))
        self.started = perf_counter()

    def factors(self) -> List[float]:
        n = len(self.samples)
        smooth = [
            statistics.median(self.samples[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(n)
        ]
        return [REFERENCE_S / ((smooth[i] + smooth[i + 1]) / 2) for i in range(n - 1)]

    @property
    def speed(self) -> float:
        """The host's median speed over the samples, 1.0 at the reference."""
        return REFERENCE_S / statistics.median(self.samples)
