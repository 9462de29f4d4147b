"""Scale wall times to a fixed CPU speed measured by a calibration kernel.

The benchmark shares its CPU with other tenants: on a 2-vCPU KVM guest
(Intel Xeon, Python 3.11), the same check-fano op took 30 ms or 50 ms
depending on what ran beside it, in spells from a second to minutes.  A fixed pure-Python kernel (``Fraction`` arithmetic, like the
library's, but no wkstab code) is therefore timed right before and right
after every timed step and, through ``SIGALRM``, every ``PERIOD`` seconds
during it.  A step's scaled time is its own wall time, kernel runs excluded,
times ``REFERENCE_S`` over the mean kernel time around and during it: the
time the step takes when the kernel takes ``REFERENCE_S``.  The raw wall
times are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Kernel time on that guest when nothing else runs on its core.
REFERENCE_S = 0.002
PERIOD = 0.1


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return time.perf_counter() - start


def _quiet_kernel() -> float:
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return kernel()
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    """Scales timed calls by the kernel runs around them and, while entered
    as a context manager, by the kernel runs a timer makes during them."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0  # seconds the timer's kernel runs took
        self.raw_seconds = 0.0  # unscaled wall time of every timed call
        self.last_factor = 1.0  # scaled over wall time of the last call

    def _tick(self, signum, frame):
        k = kernel()
        self._samples.append(k)
        self._spent += k

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run ``fn()``; return its result and its scaled seconds."""
        before = _quiet_kernel()
        n, spent = len(self._samples), self._spent
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - (self._spent - spent)
        after = _quiet_kernel()
        self.raw_seconds += wall
        self.last_factor = REFERENCE_S / statistics.fmean([before, *self._samples[n:], after])
        return result, wall * self.last_factor
