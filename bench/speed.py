"""Timing in reference seconds, for machines shared with other work.

On a shared machine the speed of the same pure-Python loop was seen to drift
by a factor of 1.7 in phases of several seconds, as other tenants' load came
and went; wall and CPU time drift alike. So while operations run, a timer
signal interrupts this process every ``INTERVAL_S`` and times a fixed
calibration kernel. An operation's time, minus the time those interruptions
took, is scaled by ``REF_KERNEL_S`` over the kernel's median time around the
operation: it reads as the seconds the operation would take on a core that
runs the kernel in ``REF_KERNEL_S``. Raw times are kept next to the scaled
ones.

The kernel mixes the work the package does: interpreted loops, dict
stores and big-integer arithmetic. It does not touch the package, so a
change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REF_KERNEL_S = 0.00065  # the kernel's time on the machine the bounds were set on
INTERVAL_S = 0.05


def _kernel() -> int:
    d = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) % 2305843009213693951
        d[i & 127] = x
    return pow(3, 4000, 2**521 - 1) + len(d)


def median_kernel_seconds(repeats: int = 9) -> float:
    """The kernel's median time over a few back-to-back runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    """Samples the machine's speed on a timer signal while it runs.

    Use as a context manager around the timed passes. ``mark()`` before and
    ``measure()`` after an operation give its raw time without the samples
    taken inside it, and the factor to reference seconds.
    """

    def __init__(self):
        self.at: list = []  # sample start times
        self.kernel: list = []  # kernel seconds of each sample
        self.spent = 0.0  # seconds spent in the signal handler
        self._old = None
        self._sample()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self._sample()
        self.spent += perf_counter() - t0

    def _sample(self):
        t0 = perf_counter()
        _kernel()
        self.at.append(t0)
        self.kernel.append(perf_counter() - t0)

    def mark(self) -> tuple:
        """Call right before an operation."""
        return perf_counter(), self.spent

    def measure(self, mark: tuple) -> tuple:
        """Call right after: (raw seconds without the samples' time, factor
        to reference seconds)."""
        t1, spent1 = perf_counter(), self.spent
        t0, spent0 = mark
        lo = bisect.bisect_left(self.at, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.at, t1)
        around = self.kernel[lo:hi] or self.kernel[-1:]
        return (t1 - t0) - (spent1 - spent0), REF_KERNEL_S / statistics.median(around)
