"""Sample the host's speed while operations run.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within a minute, and every timing of lcowind drifts with it; a
median over a run does not remove a drift that lasts for the run.  While a
`HostSampler` is active, a SIGALRM timer interrupts the running operation
every PERIOD_S seconds and times a fixed reference kernel: small numpy
steps of the same kind as a pseudo-time iteration of lcowind.  An
operation's time divided by the kernel's mean time during that operation
is its cost in kernel units, which a slower or faster host leaves nearly
unchanged.  The kernel's own time is taken out of the operation's time.

The handler runs between bytecodes of the main thread, so it interrupts
the operation only where Python code could run anyway; it touches no state
of lcowind.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1
KERNEL_STEPS = 250  # about 4 ms on a 2-vCPU VM: 4% of an operation's time

_A = np.array([[2.0, 0.3], [0.1, 1.5]])
_SHIFT = 0.01 * np.eye(2)


def kernel() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    u = np.array([0.4, -0.2])
    for _ in range(KERNEL_STEPS):
        rhs = 0.5 * u + np.array([u[1], -u[0] + (1.0 - u[0] ** 2) * u[1]])
        u = u - 0.1 * np.linalg.solve(_A + _SHIFT, rhs)
        float(np.linalg.norm(rhs))
    return time.perf_counter() - start


class HostSampler:
    """Times the reference kernel every PERIOD_S seconds while active.

    `mark()` returns a position; `since(mark)` returns the seconds the
    kernel took since then, which callers take out of their own timings,
    and the kernel's mean time over those samples.  Between two marks that
    hold no sample it is the latest sample, so a short operation gets the
    host speed measured just before it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        seconds = kernel()
        self.samples.append(seconds)
        self.paused_s += seconds

    def __enter__(self) -> "HostSampler":
        kernel()  # fill lazy state before the first sample that counts
        self.samples.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """Stop sampling for work that must run alone, such as a child process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.paused_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        count, paused_s = mark
        window = self.samples[count:] or self.samples[count - 1:count]
        return self.paused_s - paused_s, statistics.fmean(window)
