"""Host-speed calibration for the benchmark's timings.

On a shared machine other tenants slow the host by up to about 1.7x, in
spells from under a second to tens of seconds.  While a timed call runs, a
:class:`Sampler` times a short fixed pure-Python loop every 20 ms; the loop
slows with the call, so scaling the call's wall time by
``REFERENCE_S / mean loop time`` reports it at reference speed, and two runs
compare pathlab rather than the host's load.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 5000
# the loop's time on an idle 2-vCPU virtual machine with CPython 3.11, rounded
REFERENCE_S = 0.001


def loop_s() -> float:
    """Wall time of the fixed calibration loop, now."""
    start = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    for i in range(LOOP_N):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + (i & 3)
    sorted(acc)
    return time.perf_counter() - start


class Sampler:
    """While active, SIGALRM interrupts this process's main thread every
    ``EVERY_S`` to time the loop, following the host's load through the
    timed work rather than only at its ends."""

    EVERY_S = 0.02

    def __enter__(self) -> "Sampler":
        self.times: list[float] = []
        self.busy_s = 0.0  # time the samples have taken from this process
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.times.append(loop_s())
        self.busy_s += self.times[-1]

    def factor(self, first: int = 0) -> float:
        """Reference speed over the host's mean speed in samples ``first``
        onward (all samples when there are none since, one now when there
        are none at all)."""
        recent = self.times[first:] or self.times or [loop_s()]
        return REFERENCE_S / statistics.fmean(recent)
