"""Host speed, measured with a fixed calibration kernel.

The benchmark runs on shared machines whose CPU speed changes by up to a
factor of two within seconds, as other tenants come and go (on a shared
2-vCPU Intel Xeon host, one fixed record repeated for 150 s had one-second
medians between 334 and 690 us).  In ten 30 s runs per workload on that
host, the unscaled records_per_s spread (interquartile range over median)
0.078 / 0.113 / 0.095 on frame / fields / cli, and the unscaled set-up time
0.24 / 0.30 / 0.25.  So every run times this kernel between rounds of
records and reports its times scaled to a host on which the kernel takes
REFERENCE_NS; scaled, the same runs spread 0.061 / 0.013 / 0.058 and
0.15 / 0.05 / 0.08:

    reported = measured * REFERENCE_NS / kernel time nearby

The kernel uses numpy and plain Python in the proportions of the library's
own per-call work (3-vector products, complex scalars, 3x3 complex
matrices) but never calls ncframe, so a change to the program cannot move
it.  The raw times and the factors stay in each run's report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_NS = 2_500_000

_X = np.array([1.0, 2.0, 3.0])
_Y = np.array([0.5, -1.0, 2.0]) + 0.25j
_M = np.array([[1, 2, 0], [0, 1, 3], [1, 0, 1]], dtype=complex)


def kernel() -> float:
    s = 0.0
    for _ in range(60):
        a = np.cross(_X, _Y)
        b = complex(_X @ _Y)
        s += abs(b) + float(np.abs(a).max())
        s += abs(np.linalg.det(_M @ _M)) + float(np.sqrt(abs(b)))
    return s


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


class HostSpeed:
    """Kernel times sampled through a run; turns them into scale factors."""

    def __init__(self):
        self.samples: list[int] = []
        kernel()  # the first call in a process pays numpy's lazy set-up

    def sample(self) -> None:
        self.samples.append(kernel_ns())

    def factor(self, i: int | None = None, span: int = 2) -> float:
        """REFERENCE_NS over the median kernel time around sample i (or of the run)."""
        window = self.samples if i is None else self.samples[max(0, i - span): i + span + 1]
        return REFERENCE_NS / statistics.median(window)
