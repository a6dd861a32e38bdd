"""Host speed, from a fixed reference kernel timed between pieces of work.

On a shared host the speed of one vCPU swings by up to half within seconds
to tens of seconds.  The process's own CPU time slows alike, so this is not
steal time but contention for the shared core, cache or memory.  Runs of
the same code minutes apart then differ by more than any bound a regression
check can use.

The benchmark therefore interleaves a fixed kernel with the data vectors it
times, timing it for ``share`` of the timed work (its untimed warm-up passes
take as long again), and scales each vector's time by ``REFERENCE_S`` over
the kernel's median time in the same window: vector timings are reported at
the host's reference speed.  A slow spell of the host slows the vectors and
the kernel alike; a change to the program moves only the vectors, since the
kernel is benchmark code and starts from the same cache state whatever the
program did.  The raw timings and the
speed factor are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# A kernel time measured between the vectors of known-screen on a 2-vCPU
# KVM Xeon guest (OpenBLAS on 1 thread); a scaled timing equals the raw one
# when the kernel runs this fast.  It only sets the scale: comparisons of
# two commits on one workload do not depend on it.
REFERENCE_S = 2.7e-3

# Untimed kernel runs before the first sample.
WARMUP = 50

# Timings within this many seconds of each other share one speed factor.
WINDOW_S = 1.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((1024, 1024))
_B = _rng.standard_normal((1024, 8))
_X = _rng.standard_normal((256, 200))


def _pass() -> None:
    _A @ _B
    for i in range(256):
        float(np.linalg.norm(_X[i] - _X[i - 1]))


def kernel() -> float:
    """Seconds for a product that streams an 8 MB matrix from the shared
    cache plus 256 small numpy calls: the kinds of work the calibration and
    the selector do.  An untimed pass first brings the data and code back
    into cache, so the time depends neither on what the work before it
    evicted nor on how many samples run back to back between two vectors.
    Of the kernels tried (small BLAS products, large ones, small numpy
    calls, and mixes of them), this mix tracked the speed of both gated
    workloads' vector loops best over a range of host states."""
    _pass()
    t0 = perf_counter()
    _pass()
    return perf_counter() - t0


class HostSpeed:
    """Kernel samples grouped by window, and the timings they scale."""

    def __init__(self, share: float):
        self.share = share
        self.samples: dict[int, list[float]] = defaultdict(list)
        self._owed = 0.0
        for _ in range(WARMUP):
            kernel()

    def after(self, work_s: float, window: int) -> None:
        """Run the kernel for ``share`` of ``work_s``, carrying the rest
        over, and count its samples to ``window``."""
        self._owed += self.share * work_s
        while self._owed > 0:
            dt = kernel()
            self._owed -= dt
            self.samples[window].append(dt)

    def overall(self) -> float:
        return statistics.median(t for ts in self.samples.values() for t in ts)

    def factor(self, window: int) -> float:
        """Reference time over the window's median kernel time (the run's
        median where the window has no sample)."""
        ts = self.samples.get(window)
        return REFERENCE_S / (statistics.median(ts) if ts else self.overall())
