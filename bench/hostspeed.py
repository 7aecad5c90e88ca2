"""Host-speed correction for timings taken on a shared machine.

On the shared 2-core host this benchmark was written on, one deterministic
``verify`` pass took anywhere from 29 s to 53 s depending on what else the
host ran, and the speed moves over seconds to minutes.  ``HostSpeed`` runs a
fixed reference kernel from a SIGALRM handler every ``PERIOD_S`` inside the
timed thread itself, so it sees the same core at the same moments as the
program.  A timing is corrected as ``raw * NOMINAL_S / mean(kernel times
during it)``: seconds at the reference speed.  Over repeated passes in one
process this cut the spread (IQR / median) of pass times from 0.25 to 0.05
for ``verify --families k`` and from 0.14 to 0.05 for ``simulate``.  The
kernel is the benchmark's own code, so a change to the program cannot move
it.  A pure-Python loop tracked both better than kernels of small or large
numpy operations.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.25
# typical kernel time on the baseline host (Intel Xeon, 2 vCPUs); it only
# sets the scale of corrected seconds
NOMINAL_S = 1.0e-3


def reference_kernel() -> int:
    total = 0
    for i in range(12000):
        total += i * i % 7
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference kernel while entered; ``factor`` corrects."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """NOMINAL_S over the mean kernel time sampled after ``mark()``.

        An interval too short to hold a sample is measured once now.
        """
        if len(self.samples) == since:
            self.samples.append(time_kernel())
        return NOMINAL_S / statistics.mean(self.samples[since:])
