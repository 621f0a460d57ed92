"""Host-speed probe: scales measured times to a fixed reference speed.

The host this benchmark runs on is a small VM on a shared machine.  Its
speed changes with outside load by up to 1.6x, in phases from about a
second to minutes, and the phases are invisible to the guest: CPU time
tracks wall time, and no steal time is reported.  Run medians of raw wall
time therefore spread by up to 0.3 between runs of the same code.

The probe runs a fixed reference kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time, in the same process and on the same CPU as the
work it measures, and records how long each kernel took.  A time measured
over ``[start, end]`` is scaled by ``REFERENCE_S / median(kernel times
near that interval)``: it reads as the seconds the work would take on a
host where the kernel takes ``REFERENCE_S``.  The kernel is the benchmark's
own code and never changes with the program, so a program that does more
work still reads slower; only the host's share of the time is divided out.

The kernel mixes interpreter-bound arithmetic with ``bisect.insort`` into a
20,000-item list (a memmove over about 80 KB), because the workloads are
both: the outside load slows cache- and memory-heavy ops such as
fptas-c100k more than pure interpreter work.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

# Wall seconds between kernel runs; a kernel takes 0.4-1 ms, so the probe
# costs the measured work about 4 %.
INTERVAL_S = 0.02
# About the kernel's median time on the reference host (2-vCPU Intel Xeon
# VM, Python 3.11.7) while the workloads run.  Only a constant: it sets the
# scale of the reported seconds, not their spread.
REFERENCE_S = 0.0009
# A short interval (a set-up) is judged by the kernels this close to it.
PAD_S = 0.25


class SpeedProbe:
    """Samples the host's speed while active; see the module docstring."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._base = sorted(rng.randrange(1 << 40) for _ in range(20_000))
        self._new = [rng.randrange(1 << 40) for _ in range(100)]
        self.starts: list[float] = []
        self.times: list[float] = []

    def kernel(self) -> int:
        acc = 0
        seen = {}
        for i in range(300):
            acc = (acc * 31 + i) % 1_000_003
            seen[i & 63] = acc
        sums = self._base[:]
        for v in self._new:
            bisect.insort(sums, v)
        return acc + len(sums) + len(seen)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    @contextmanager
    def active(self) -> Iterator["SpeedProbe"]:
        """Sample every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within PAD_S of ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        near = self.times[lo:hi]
        if not near:
            raise RuntimeError("the speed probe took no sample near the interval")
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds``, measured from ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)
