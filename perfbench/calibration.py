"""Host-speed calibration.

The 2-vCPU VM this benchmark was tuned on switches between a fast and a
slow speed state about 1.45x apart, for stretches from under a second to
several minutes, so raw times of one run differ from the next by up to 40%.
Every group of ops (one CLI process, one import probe, one stage of a well
or about 0.1 s of its state checks, one pass of special-function calls) is therefore bracketed by two runs of a
fixed pure-Python kernel on each side (float math, dict updates and
Fraction arithmetic, like the package's own work), and its times are
scaled by

    REFERENCE_S / (median of those four kernel times)

A change to the package does not touch the kernel, so it moves the scaled
times exactly as it moves the raw ones; the report prints both.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.9e-3  # fast-state kernel time on the tuning VM


def kernel():
    xs = [math.sin(i * 0.001) * math.exp(-i * 1e-4) for i in range(3000)]
    sums = {}
    for i, x in enumerate(xs):
        sums[i % 97] = sums.get(i % 97, 0.0) + x
    q = Fraction(3, 7)
    for i in range(1, 40):
        q = q * q / (q + i) if q.denominator < 10**200 else Fraction(1, i)
    return sums, q


class Calibration:
    """Kernel timings of one run."""

    def __init__(self):
        self.samples = []

    def probe(self, repeat=2):
        """Times the kernel ``repeat`` times; returns those times."""
        clock = time.perf_counter
        fresh = []
        for _ in range(repeat):
            t0 = clock()
            kernel()
            fresh.append(clock() - t0)
        self.samples += fresh
        return fresh

    @staticmethod
    def scale(samples):
        """Multiply a raw time by this to express it at the reference speed."""
        return REFERENCE_S / statistics.median(samples)

    def kernel_s(self):
        """Median kernel time of the run, for the report."""
        return statistics.median(self.samples)
