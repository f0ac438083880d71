"""How fast the machine runs at a given moment, from a fixed reference loop.

The benchmark's host is shared with other machines, and their load changes
how fast this one runs by up to a factor of two within seconds.  So every
time the benchmark reports is scaled to a reference speed: it is multiplied
by ``REF_S`` over the time the reference loop took around it.  The loop is
interpreter work of the kind the library does (integer arithmetic, tuple
keys in a dict, float arithmetic) and uses nothing of the library, so a
change to the library cannot change it.  Changing the loop or ``REF_S``
rescales every figure, so neither may change once runs have been compared.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds the reference loop takes at reference speed: about its median on a
#: 2-core x86-64 virtual machine
REF_S = 0.00065
#: seconds between two samples.  The speed changes within a tenth of a
#: second, so an op's speed is taken from the samples inside it
PERIOD_S = 0.02


def reference() -> float:
    """Runs the reference loop once; returns how many seconds it took."""
    t0 = time.perf_counter()
    acc = 0
    table: dict = {}
    for i in range(1200):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + 1
        acc += (i * i) & 0xFFF
    x = 0.5
    for _ in range(1200):
        x = 3.9 * x * (1.0 - x)
    return time.perf_counter() - t0


class Probe:
    """Samples the reference loop every ``PERIOD_S`` seconds from a SIGALRM
    handler, from :meth:`start` to :meth:`stop`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        #: seconds spent sampling; a time taken while sampling excludes them
        self.spent = 0.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, reference()))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Mean speed from ``start`` to ``end`` relative to the reference
        speed: the mean of ``REF_S`` over each sample taken within a period
        of that span.  Samples are evenly spaced in time, so the mean weighs
        each moment alike."""
        near = [s for t, s in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        return statistics.fmean(REF_S / s for s in near or [s for _, s in self.samples])
