"""Machine-speed reference for the end-to-end timing metrics.

The benchmark runs on shared virtual machines whose speed moves by up to
1.7x for minutes at a time, while the process stays on its CPU: a 30-second
run can fall entirely into a slow or a fast spell, so no statistic over the
run's own requests removes it.  The client therefore times a fixed reference
kernel between requests, about every ``EVERY_S`` seconds.  The kernel is the
benchmark's own checker arithmetic (check.py: literal parsing, the Horner
norm, the window-count dynamic program, a cofactor determinant), the same
kind of pure-Python integer work that vltower does, and no change to vltower
touches it.

The speed factor of a run is ``REFERENCE_S`` divided by the median kernel
time over the run.  Times are reported multiplied by the factor, and rates
divided by it: they read as seconds on a machine that runs the kernel in
``REFERENCE_S`` (the median on a 2-vCPU Xeon at 2.1 GHz, a shared VM, in its
usual state).  A change to vltower moves the requests and not the kernel, so
it shows in full; the raw wall-clock values are printed beside them.
"""

from __future__ import annotations

import statistics
import time

from check import horner_norm, parse_poly, window_count

REFERENCE_S = 0.0005
EVERY_S = 0.05

_LITERALS = ("3b^-2-b^-1+2-5b+b^3+7b^5", "-b^-1+1+b-2b^2+4b^7-b^9", "2-b^40+b^41", "1-3b+b^2+b^3")
_MATRIX = [[3, -1, 4, 1], [5, 9, -2, 6], [5, 3, 5, -8], [9, 7, 9, 3]]


def _det(mat: list[list[int]]) -> int:
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    )


def kernel() -> int:
    """One unit of reference work; the result is returned so none of it is skipped."""
    total = 0
    for _ in range(4):
        total += sum(horner_norm(parse_poly(text)) for text in _LITERALS)
        total += window_count(3, 2) + _det(_MATRIX)
    return total


class SpeedProbe:
    """Kernel timings taken between requests, and the run's speed factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -EVERY_S

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        """Time the kernel if EVERY_S has passed since the last timing."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
