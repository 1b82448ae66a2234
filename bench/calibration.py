"""Machine-speed calibration for timings taken on a shared host.

On the shared 2-vCPU virtual machine this benchmark was defined on, the
effective speed of the CPU drifts by up to 1.7x within a minute (other
tenants; no steal time shows, so CPU time drifts with wall time).  A fixed
pure-Python loop, timed between consecutive requests, tracks that drift.
Over six passes of the same 80 exact_certify requests, the coefficient of
variation of the pass's total time was 0.14 raw and 0.02 calibrated; of
its median request, 0.16 raw and 0.04 calibrated.

Calibrated times are raw seconds scaled by ``REF_S / loop_s``, that is
seconds on a machine where the loop takes ``REF_S``; ``loop_s`` is the
mean of the loop times just before and just after the request, smoothed
over one neighbour on each side.  Raw times are kept next to calibrated
ones in every result.

Import time in a fresh interpreter does not follow this loop well enough
(over 60 probes, scaling by it raised the coefficient of variation from
0.13 to 0.24); ``run.probe_setup`` uses a reference import instead.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# A fixed unit: close to the loop's time on that machine in its faster state.
REF_S = 5.0e-4


def loop() -> Fraction:
    """Fraction and int arithmetic, like the library's exact paths."""
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(1, i)
    return s


def sample() -> float:
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def speed(repeats: int = 5) -> float:
    """Median loop time over ``repeats`` back-to-back samples."""
    return statistics.median(sample() for _ in range(repeats))


def smoothed(samples: list, half_width: int = 1) -> list:
    """Centered running median: one loop time per measured interval."""
    n = len(samples)
    return [statistics.median(samples[max(0, i - half_width):min(n, i + half_width + 1)])
            for i in range(n)]
