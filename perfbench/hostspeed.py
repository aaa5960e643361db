"""Host-speed calibration: every timing is scaled to a reference host speed.

The benchmark's host is shared: its speed moves by up to a factor of two
over seconds to minutes (processor time moves with wall time, so it is not
a matter of scheduling).  To keep that out of the metrics, a fixed reference
kernel, which runs no metacrit code, is timed next to every measured
interval, as the fastest of a few runs: between commands and cold imports
in the parent, and every TICK_S of wall time inside a table child.  An interval of wall time ``d``
is reported as ``d * (REF_KERNEL_S / k) ** ELASTICITY``, where ``k`` is the
median of the two kernel timings before and the two after it.  The result
reads as seconds on a host on which the kernel takes REF_KERNEL_S (its
median on a 2-core 2.1 GHz Xeon); kernel time itself is never counted in an
interval.  Raw wall times are printed as ``info``.

The kernel does what the sampler does, on arrays of the simulation's size:
Philox uniforms, the minimum of pairs, logs, row sums and a sort.  On the
host above, metacrit's work slows by less than the kernel when the host
slows: over four minutes of interleaved timings, an mg table row, a chen
table row and a cold ``import metacrit`` all followed the kernel's time
raised to a power between 0.6 and 0.8.  ELASTICITY is that power; with it,
the spread of 40-second sums fell from 0.12-0.14 of their median (raw) to
0.02-0.03, against 0.05-0.07 with the power 1.  A kernel of interpreter
work (a dict-update loop) tracked all three less well than this one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.005
ELASTICITY = 0.7
TICK_S = 0.5
REPEAT = 3  # kernel runs per timing; the fastest is kept


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    stream = np.random.Generator(np.random.Philox(20251018))
    t0 = time.perf_counter()
    for _ in range(3):
        u = stream.random((4999, 24))
        y = np.log(np.minimum(u[:, :12], u[:, 12:])).sum(axis=1)
        y.sort()
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel timings in time order, and the scale they give an interval."""

    def __init__(self):
        self.times = []    # perf_counter at the middle of each kernel run
        self.kernels = []  # its wall time

    def sample(self) -> float:
        """Run the kernel REPEAT times and keep the fastest: the first
        run after a child process or a stretch of other work finds the
        caches cold and reads up to twice as slow as the host is."""
        start = time.perf_counter()
        took = min(kernel() for _ in range(REPEAT))
        self.times.append((start + time.perf_counter()) / 2.0)
        self.kernels.append(took)
        return took

    def factor(self, start: float, end: float) -> float:
        """(REF_KERNEL_S / k) ** ELASTICITY, with k the median kernel time
        of the two samples before ``start`` and the two after ``end``."""
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        near = self.kernels[max(0, lo - 2):lo] + self.kernels[hi:hi + 2]
        if not near:
            raise ValueError("no kernel timing near the interval")
        return (REF_KERNEL_S / statistics.median(near)) ** ELASTICITY

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)


class Ticker:
    """Inside a child: run the kernel every TICK_S of wall time, from a
    SIGALRM interval timer, and keep the program's own time apart from it.

    ``program_s`` is the wall time of the ``with`` block less the kernel
    runs; ``scaled_s`` is that time segment by segment scaled to the
    reference speed.  Timers are not inherited across fork, so the program's
    worker processes, if any, are not interrupted.
    """

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.log = SpeedLog()
        self.segments = []  # (start, end) of program time between kernels
        self._start = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.segments.append((self._start, time.perf_counter()))
            self.log.sample()
            self._start = time.perf_counter()
        finally:
            self._busy = False

    def __enter__(self):
        self.log.sample()
        self.log.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.segments.append((self._start, time.perf_counter()))
        self.log.sample()
        self.log.sample()
        return False

    @property
    def program_s(self) -> float:
        return sum(end - start for start, end in self.segments)

    @property
    def scaled_s(self) -> float:
        return sum(self.log.scaled(start, end) for start, end in self.segments)
