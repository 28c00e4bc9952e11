"""A fixed pure-Python kernel that measures how fast this CPU runs right now.

On a shared virtual machine the speed of a vCPU drifts with its neighbours'
load: on the 2-vCPU machine this benchmark was sized on, this kernel took
from 5 to 13 ms at different times, in plateaus lasting seconds and with
changes within a fraction of a second, while CPU time equalled wall time (no
steal is visible to the guest). Timings are therefore reported at a
reference speed: each measured time is multiplied by REFERENCE_NS divided by
the mean time of the kernel runs made within WINDOW_NS of it. The kernel
uses the standard library only, and the same kinds of work as cmparity
(Fraction arithmetic, complex floats, integer trial division), so both slow
down together, and no change to cmparity can move it.
"""

from __future__ import annotations

import bisect
import cmath
import time
from fractions import Fraction

REFERENCE_NS = 10_000_000  # the kernel's time at the reference speed
SHARE = 0.2  # kernel time as a share of the timed operations' time
WINDOW_NS = 250_000_000


def sample() -> tuple[int, int]:
    """One run of the kernel: (midpoint, duration) in perf_counter nanoseconds."""
    start = time.perf_counter_ns()
    s = Fraction(0)
    for k in range(1, 400):
        s += Fraction(k, 2 * k + 1) * Fraction(3, k + 2)
    z = 0j
    for i in range(1, 8000):
        z += cmath.exp(complex(0.001 * i, 0.5)) / i
    m, p = 999983 * 7919, 3
    while p * p <= 4 * 10**8:
        if m % p == 0:
            m //= p
        p += 2
    duration = time.perf_counter_ns() - start
    return start + duration // 2, duration


def speed_factors(intervals: list[tuple[int, int]], samples: list[tuple[int, int]]) -> list[float]:
    """For each (start, end) interval, the factor that brings a time measured
    in it to the reference speed, from the kernel samples whose midpoints lie
    within WINDOW_NS of it (the nearest sample when none does)."""
    samples = sorted(samples)
    mids = [mid for mid, _ in samples]
    factors = []
    for start, end in intervals:
        lo = bisect.bisect_left(mids, start - WINDOW_NS)
        hi = bisect.bisect_right(mids, end + WINDOW_NS)
        near = [ns for _, ns in samples[lo:hi]]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - start))[1]]
        factors.append(REFERENCE_NS * len(near) / sum(near))
    return factors
